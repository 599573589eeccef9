// Byte-buffer reader/writer with network (big-endian) byte order.
//
// These are the primitives every wire codec in the project (IPv4/UDP/TCP
// headers, DNS messages) is built on. ByteWriter appends to an internal
// vector; ByteReader walks a non-owning span and reports truncation via
// error flags instead of exceptions so codecs can reject malformed packets
// cheaply on the hot path.
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
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
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

  /// Overwrite a previously written 16-bit field (e.g. length/checksum
  /// backpatching). `at` must point at an already-written offset.
  void patch_u16(std::size_t at, std::uint16_t v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] BytesView view() const { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] const Bytes& bytes() const { return buf_; }

 private:
  Bytes buf_;
};

/// Walks a read-only byte span. On underflow, sets an error flag and
/// returns zeroes; callers check `ok()` once at the end of a parse.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  /// Reads `n` bytes; returns an empty view and flags error on underflow.
  BytesView raw(std::size_t n);

  /// Absolute-offset random access (needed for DNS name decompression).
  [[nodiscard]] BytesView whole() const { return data_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  void seek(std::size_t pos);
  void skip(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// Manually poison the reader (parse-level validation failure).
  void fail() { ok_ = false; }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dnsguard
