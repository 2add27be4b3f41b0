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
#include <vector>

#include "util/result.h"

namespace mecdns::util {

class Arena;

/// Appends big-endian integers and raw bytes to a growable buffer.
///
/// Two backing modes share one hot path (raw data_/size_/cap_ with a grow
/// branch): the default mode owns a heap vector and take() moves it out;
/// arena mode bumps scratch from a caller-owned Arena — nothing to free,
/// and take() copies out the exact final size (one allocation per message
/// instead of one per growth step). Send paths that only need to look at
/// the bytes (dns::encode_view) skip even that copy and borrow data()
/// directly, since arena-backed bytes outlive the writer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Arena-backed scratch mode. The arena must outlive the writer; the
  /// caller resets it between messages.
  explicit ByteWriter(Arena* arena) : arena_(arena) {}

  void u8(std::uint8_t v) {
    if (size_ == cap_) grow(1);
    data_[size_++] = v;
  }

  void u16(std::uint16_t v) {
    if (size_ + 2 > cap_) grow(2);
    data_[size_++] = static_cast<std::uint8_t>(v >> 8);
    data_[size_++] = static_cast<std::uint8_t>(v);
  }

  void u32(std::uint32_t v) {
    if (size_ + 4 > cap_) grow(4);
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
  void patch_u16(std::size_t offset, std::uint16_t v);

  std::size_t size() const { return size_; }
  std::span<const std::uint8_t> data() const { return {data_, size_}; }
  const std::uint8_t* raw() const { return data_; }

  /// Yields the written bytes as an owning vector. Heap mode moves the
  /// backing vector out (no copy); arena mode copies the exact final size.
  std::vector<std::uint8_t> take();

 private:
  void append(const std::uint8_t* src, std::size_t n);
  void grow(std::size_t needed);

  Arena* arena_ = nullptr;
  std::vector<std::uint8_t> buf_;  ///< storage owner in heap mode only
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
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
