// Bounds-checked big-endian byte buffer codec.
//
// The DNS wire format (RFC 1035) is big-endian; ByteWriter/ByteReader give
// the dns library a safe primitive layer so malformed packets can never read
// out of bounds. Read failures are reported via Result (malformed input is
// an expected condition on a network, not a programming error).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/result.h"

namespace mecdns::util {

/// Appends big-endian integers and raw bytes to a caller-owned buffer.
///
/// The hot path is a raw pointer with one capacity branch per write. A
/// write that does not fit sets overflowed() and writes nothing, and so
/// does every write after it: the writer never touches memory outside the
/// buffer, and the caller discards an overflowed message as a whole.
class ByteWriter {
 public:
  explicit ByteWriter(std::span<std::uint8_t> buffer)
      : data_(buffer.data()), cap_(buffer.size()) {}

  void u8(std::uint8_t v) {
    if (!fits(1)) return;
    data_[size_++] = v;
  }

  void u16(std::uint16_t v) {
    if (!fits(2)) return;
    data_[size_++] = static_cast<std::uint8_t>(v >> 8);
    data_[size_++] = static_cast<std::uint8_t>(v);
  }

  void u32(std::uint32_t v) {
    if (!fits(4)) return;
    data_[size_++] = static_cast<std::uint8_t>(v >> 24);
    data_[size_++] = static_cast<std::uint8_t>(v >> 16);
    data_[size_++] = static_cast<std::uint8_t>(v >> 8);
    data_[size_++] = static_cast<std::uint8_t>(v);
  }

  void bytes(std::span<const std::uint8_t> data) { append(data.data(), data.size()); }

  void bytes(std::string_view data) {
    append(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  /// Overwrites a previously written big-endian u16 at `offset`.
  /// Used for patching DNS message section counts and RDLENGTH fields.
  /// Ignored once overflowed(): the field may be one the overflow dropped.
  void patch_u16(std::size_t offset, std::uint16_t v);

  /// True once a write did not fit; the written prefix is then incomplete.
  bool overflowed() const { return overflowed_; }
  std::size_t size() const { return size_; }
  std::span<const std::uint8_t> data() const { return {data_, size_}; }
  const std::uint8_t* raw() const { return data_; }

 private:
  /// True when `n` more octets fit; otherwise marks the overflow.
  bool fits(std::size_t n) {
    if (n <= cap_ - size_) return true;
    overflow();
    return false;
  }
  /// Marks the overflow and shrinks the capacity to what is written, so no
  /// later write lands either.
  [[gnu::cold]] void overflow() {
    overflowed_ = true;
    cap_ = size_;
  }
  void append(const std::uint8_t* src, std::size_t n);

  std::uint8_t* data_;
  std::size_t size_ = 0;
  std::size_t cap_;
  bool overflowed_ = false;
};

/// Reads big-endian integers and byte runs from a fixed buffer with full
/// bounds checking. The reads are inline (the wire decoder makes several
/// per record); only the error texts are built out of line.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t position() const { return pos_; }
  std::size_t size() const { return data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ >= data_.size(); }

  /// The whole buffer, for readers that walk it by absolute offset (the
  /// DNS name decompressor chases pointers anywhere in the message).
  std::span<const std::uint8_t> data() const { return data_; }

  /// Moves the cursor to an absolute offset; fails if out of range.
  Result<void> seek(std::size_t offset) {
    if (offset > data_.size()) return Err("seek past end of buffer");
    pos_ = offset;
    return Ok();
  }

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return truncated(1);
    return data_[pos_++];
  }

  Result<std::uint16_t> u16() {
    if (remaining() < 2) return truncated(2);
    const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) |
                                              data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  Result<std::uint32_t> u32() {
    if (remaining() < 4) return truncated(4);
    const std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                            (std::uint32_t{data_[pos_ + 1]} << 16) |
                            (std::uint32_t{data_[pos_ + 2]} << 8) |
                            std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return v;
  }

  /// Borrows the next n bytes — the span is valid only as long as the
  /// buffer backing this reader.
  Result<std::span<const std::uint8_t>> view(std::size_t n) {
    if (remaining() < n) return truncated_run(n, remaining());
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// "truncated: need 1 byte" / "truncated: need n bytes".
  [[gnu::cold]] static Error truncated(std::size_t n);
  /// "truncated: need n bytes, have m" — a byte run longer than the rest.
  [[gnu::cold]] static Error truncated_run(std::size_t n, std::size_t have);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mecdns::util
