#include "util/bytes.h"

#include <cstring>
#include <stdexcept>

#include "util/arena.h"

namespace mecdns::util {

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > size_) {
    throw std::out_of_range("ByteWriter::patch_u16 past end of buffer");
  }
  data_[offset] = static_cast<std::uint8_t>(v >> 8);
  data_[offset + 1] = static_cast<std::uint8_t>(v);
}

std::vector<std::uint8_t> ByteWriter::take() {
  if (arena_ != nullptr) {
    std::vector<std::uint8_t> out(data_, data_ + size_);
    data_ = nullptr;
    size_ = cap_ = 0;
    return out;
  }
  buf_.resize(size_);
  data_ = nullptr;
  size_ = cap_ = 0;
  return std::move(buf_);
}

void ByteWriter::append(const std::uint8_t* src, std::size_t n) {
  // An empty run may come with a null pointer (an empty OPT RDATA), which
  // memcpy forbids even for zero bytes.
  if (n == 0) return;
  if (size_ + n > cap_) grow(n);
  std::memcpy(data_ + size_, src, n);
  size_ += n;
}

void ByteWriter::grow(std::size_t needed) {
  std::size_t next = cap_ == 0 ? 64 : cap_ * 2;
  while (next < size_ + needed) next *= 2;
  if (arena_ != nullptr) {
    auto* fresh = arena_->alloc_array<std::uint8_t>(next);
    if (size_ != 0) std::memcpy(fresh, data_, size_);
    data_ = fresh;
  } else {
    buf_.resize(next);
    data_ = buf_.data();
  }
  cap_ = next;
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
