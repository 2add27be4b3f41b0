#include "util/bytes.h"

#include <cstring>
#include <stdexcept>

namespace mecdns::util {

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (overflowed_) return;
  if (offset + 2 > size_) {
    throw std::out_of_range("ByteWriter::patch_u16 past end of buffer");
  }
  data_[offset] = static_cast<std::uint8_t>(v >> 8);
  data_[offset + 1] = static_cast<std::uint8_t>(v);
}

void ByteWriter::append(const std::uint8_t* src, std::size_t n) {
  // An empty run may come with a null pointer (an empty OPT RDATA), which
  // memcpy forbids even for zero bytes.
  if (n == 0 || !fits(n)) return;
  std::memcpy(data_ + size_, src, n);
  size_ += n;
}

Error ByteReader::truncated(std::size_t n) {
  return Err(n == 1 ? std::string("truncated: need 1 byte")
                    : "truncated: need " + std::to_string(n) + " bytes");
}

Error ByteReader::truncated_run(std::size_t n, std::size_t have) {
  return Err("truncated: need " + std::to_string(n) + " bytes, have " +
             std::to_string(have));
}

}  // namespace mecdns::util
