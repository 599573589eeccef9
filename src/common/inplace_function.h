// InplaceFunction: a move-only std::function replacement whose callable
// lives inside the object itself (small-buffer optimization), so storing
// and invoking one costs no heap allocation on the hot path.
//
// The discrete-event scheduler stores millions of short-lived callbacks per
// simulated second; std::function heap-allocates for any capture larger
// than ~2 pointers, which dominated the event-loop profile. Nearly every
// event in this codebase captures at most a node pointer plus a Packet, so
// the default capacity is sized for that. There is no out-of-line path: a
// callable larger than `Capacity`, or aligned more strictly than `Align`,
// does not convert, so an oversized capture is a compile error.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dnsguard {

/// Default inline capacity: fits a lambda capturing [Node*, net::Packet]
/// (the packet-delivery event, by far the most common).
inline constexpr std::size_t kInplaceFunctionCapacity = 96;

/// `Align` sets the storage (and object) alignment. The event queue
/// over-aligns its EventFn slots to 64 so each one covers exactly two
/// cache lines.
template <typename Signature, std::size_t Capacity = kInplaceFunctionCapacity,
          std::size_t Align = alignof(std::max_align_t)>
class InplaceFunction;  // undefined; only the R(Args...) partial spec exists

template <typename R, typename... Args, std::size_t Capacity,
          std::size_t Align>
class InplaceFunction<R(Args...), Capacity, Align> {
  /// Callables this function can hold: invocable with the signature and
  /// small enough to live in the storage.
  template <typename D>
  static constexpr bool kFits = !std::is_same_v<D, InplaceFunction> &&
                                std::is_invocable_r_v<R, D&, Args...> &&
                                sizeof(D) <= Capacity && alignof(D) <= Align;

 public:
  InplaceFunction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<kFits<D>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept {
    steal(std::move(other));
  }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(std::move(other));
    }
    return *this;
  }

  /// Assigning a callable constructs it directly in this object's storage
  /// — the event queue uses this to build callbacks in their final slot
  /// without an intermediate InplaceFunction and its relocate.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<kFits<D>>>
  InplaceFunction& operator=(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  R operator()(Args... args) {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (vtable_ == nullptr) return;
    if (!vtable_->trivial) vtable_->destroy(storage_);
    vtable_ = nullptr;
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    // Move-constructs the callable from `src` into raw storage `dst`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    std::size_t size;
    bool trivial;  // trivially copyable: memcpy to move, nothing to destroy
  };

  template <typename D>
  static constexpr VTable kVTableFor{
      [](void* obj, Args&&... args) -> R {
        return (*static_cast<D*>(obj))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* obj) { static_cast<D*>(obj)->~D(); },
      sizeof(D),
      std::is_trivially_copyable_v<D>,
  };

  template <typename D, typename F>
  void construct(F&& f) {
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "callables must be nothrow-move-constructible (the event "
                  "heap relocates entries while sifting)");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    vtable_ = &kVTableFor<D>;
  }

  void steal(InplaceFunction&& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ == nullptr) return;
    if (vtable_->trivial) {
      std::memcpy(storage_, other.storage_, vtable_->size);
    } else {
      vtable_->relocate(storage_, other.storage_);
    }
    other.vtable_ = nullptr;
  }

  alignas(Align) std::byte storage_[Capacity];
  const VTable* vtable_ = nullptr;
};

}  // namespace dnsguard
