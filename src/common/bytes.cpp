#include "common/bytes.h"

namespace dnsguard {

void ByteWriter::patch_u16(std::size_t at, std::uint16_t v) {
  if (at + 2 > buf_.size()) return;
  buf_[at] = static_cast<std::uint8_t>(v >> 8);
  buf_[at + 1] = static_cast<std::uint8_t>(v);
}

}  // namespace dnsguard
