// dns::Cursor: the bounds-checked decode cursor for attacker-controlled
// wire bytes.
//
// Every DNS parse path (message.cpp, name.cpp, records.cpp) walks the
// incoming datagram through this type; it is the program's only wire
// reader. The contract the decode-bounds lint rule enforces is that *all*
// positional reasoning lives here:
//
//   - reads (u8/u16/u32/raw/chars/skip) saturate against a limit and
//     poison the cursor instead of reading out of bounds;
//   - RDATA framing uses push_window(rdlength)/at_limit()/pop_window()
//     instead of computing `rdata_end = pos + rdlength` by hand;
//   - compression-pointer chasing uses mark()/jump_back()/resume(), with
//     the strictly-backwards check built into jump_back() so a decoder
//     cannot forget it.
//
// Positions are absolute offsets into the whole message (compression
// pointers are message-absolute, RFC 1035 §4.1.4). A window only fences
// the *end*: jump_back() deliberately escapes the current window — a
// pointer inside RDATA may target any earlier byte of the message — and
// resume() re-establishes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace dnsguard::dns {

class Cursor {
 public:
  explicit Cursor(BytesView wire) : data_(wire), limit_(wire.size()) {}

  /// A saved (position, window-limit) pair; see mark()/resume().
  struct Mark {
    std::size_t pos = 0;
    std::size_t limit = 0;
  };

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(data_[pos_]) << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 24 |
                      static_cast<std::uint32_t>(data_[pos_ + 1]) << 16 |
                      static_cast<std::uint32_t>(data_[pos_ + 2]) << 8 |
                      static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  /// Reads `n` bytes; returns an empty view and poisons the cursor on
  /// underflow.
  BytesView raw(std::size_t n) {
    if (!take(n)) return {};
    BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Reads `n` bytes as text. The one sanctioned byte->char conversion in
  /// the decode path (label bytes are opaque octets, RFC 1035 §2.3.3).
  std::string_view chars(std::size_t n) {
    BytesView v = raw(n);
    // DNSGUARD_LINT_ALLOW(decode): the single sanctioned cast from wire
    // octets to text; every other parse site must call chars() instead.
    return {reinterpret_cast<const char*>(v.data()), v.size()};
  }

  void skip(std::size_t n) {
    if (!take(n)) return;
    pos_ += n;
  }

  // --- RDATA windows ---------------------------------------------------

  /// Fences the next `len` bytes as a sub-window (RDATA framing). Fails
  /// (and poisons the cursor) if `len` overruns the current limit.
  /// Windows do not nest; pop_window() restores the whole-message limit.
  [[nodiscard]] bool push_window(std::size_t len) {
    if (len > limit_ - pos_) {
      ok_ = false;
      return false;
    }
    limit_ = pos_ + len;
    return true;
  }

  /// True when the cursor sits exactly at the current window's end — the
  /// "consumed the whole RDATA" check.
  [[nodiscard]] bool at_limit() const { return pos_ == limit_; }

  void pop_window() { limit_ = data_.size(); }

  /// True when every byte of the message has been consumed (trailing
  /// garbage check).
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  // --- compression-pointer chasing -------------------------------------

  [[nodiscard]] Mark mark() const { return {pos_, limit_}; }

  /// Follows a compression pointer. Enforces the strictly-backwards rule
  /// (RFC 1035 loop prevention): fails unless `target` precedes the
  /// current position. Escapes any active window — post-jump reads are
  /// bounded by the message end until resume().
  [[nodiscard]] bool jump_back(std::size_t target) {
    if (target >= pos_) {
      ok_ = false;
      return false;
    }
    pos_ = target;
    limit_ = data_.size();
    return true;
  }

  /// Restores a position/window saved before pointer chasing.
  void resume(Mark m) {
    pos_ = m.pos;
    limit_ = m.limit;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  /// Manually poison the cursor (parse-level validation failure).
  void fail() { ok_ = false; }

 private:
  /// Bounds check for an `n`-byte read against the active limit.
  [[nodiscard]] bool take(std::size_t n) {
    if (!ok_ || n > limit_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
  bool ok_ = true;
};

}  // namespace dnsguard::dns
