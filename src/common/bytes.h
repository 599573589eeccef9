// Byte buffers and a big-endian (network order) writer.
//
// ByteWriter is what the DNS encoder builds wire bytes with: it appends
// to an internal vector. Decoding reads through dns::Cursor
// (dns/cursor.h), the program's only wire reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dnsguard {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Appends integers (big-endian) and raw bytes to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopts an existing buffer (cleared, capacity kept) so codecs can
  /// re-serialize into recycled storage without reallocating.
  explicit ByteWriter(Bytes&& reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  void u8(std::uint8_t v) {
    // DNSGUARD_LINT_ALLOW(alloc): grows the buffer only past its capacity;
    // the hot-path encoders (Message::encode_to, encode_pooled) write into
    // a warmed buffer
    buf_.push_back(v);
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void raw(BytesView bytes) { buf_.insert(buf_.end(), bytes.begin(), bytes.end()); }
  void raw(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Overwrite a previously written 16-bit field (e.g. RDLENGTH
  /// backpatching). `at` must point at an already-written offset.
  void patch_u16(std::size_t at, std::uint16_t v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] BytesView view() const { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] const Bytes& bytes() const { return buf_; }

 private:
  Bytes buf_;
};

}  // namespace dnsguard
