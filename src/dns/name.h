// DNS domain names (RFC 1035 §2.3 / §3.1).
//
// A DnsName is a sequence of labels; comparison is ASCII case-insensitive
// per RFC 4343: only 'A'..'Z' fold, every other octet (0x80..0xff
// included) compares as itself. Names are validated on construction:
// labels of 1..63 octets, total wire length <= 255.
//
// Storage is a single wire-format buffer (length-prefixed labels, without
// the terminating root byte): up to 54 data octets inline — covering every
// realistic hostname — with a heap fallback for longer names up to the
// RFC limit of 254 data octets. This makes the common name a zero-allocation
// value type; the old std::vector<std::string> representation cost one heap
// allocation per label plus the vector itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace mecdns::dns {

/// RFC 4343 case fold: 'A'..'Z' to 'a'..'z', every other octet unchanged.
/// Identical to std::tolower in the C locale, without the locale lookup;
/// every case-insensitive name comparison, hash and the wire compressor
/// fold through this one function.
constexpr char ascii_fold(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

class DnsName {
 public:
  /// Maximum data octets (255-octet wire limit minus the root byte).
  static constexpr std::size_t kMaxData = 254;
  /// Data octets stored inline before falling back to the heap.
  static constexpr std::size_t kInlineCapacity = 54;

  /// The root name (zero labels).
  DnsName() : size_(0), count_(0) {}

  DnsName(const DnsName& other);
  DnsName(DnsName&& other) noexcept;
  DnsName& operator=(const DnsName& other);
  DnsName& operator=(DnsName&& other) noexcept;
  ~DnsName();

  /// Parses presentation format ("www.example.com" or "www.example.com.").
  /// A trailing dot is accepted and ignored; "." parses to the root.
  static util::Result<DnsName> parse(std::string_view text);

  /// Parses, throwing std::invalid_argument on failure; for literals.
  static DnsName must_parse(std::string_view text);

  static DnsName root() { return DnsName(); }

  /// Builds from already-split labels (front = leftmost label).
  static util::Result<DnsName> from_labels(std::vector<std::string> labels);

  /// Validates and appends one label at the right (builder for parse and
  /// wire decoding). Fails on invalid labels or if the name would exceed
  /// the 255-octet wire limit; the name is unchanged on failure.
  util::Result<void> append_label(std::string_view label);

  bool is_root() const { return count_ == 0; }
  std::size_t label_count() const { return count_; }

  /// The i-th label (0 = leftmost). The view borrows this name's storage.
  std::string_view label(std::size_t i) const;

  /// Labels as owning strings — cold-path convenience (allocates).
  std::vector<std::string> labels() const;

  /// Wire-format bytes: length-prefixed labels WITHOUT the terminating
  /// root byte. Borrows this name's storage.
  std::string_view wire_labels() const { return {data_ptr(), size_}; }

  /// Wire-format length in octets (labels + length bytes + root byte).
  std::size_t wire_length() const { return std::size_t{size_} + 1; }

  /// True if this name is `ancestor` or a subdomain of it.
  bool is_subdomain_of(const DnsName& ancestor) const;

  /// Strips the leftmost label ("www.example.com" -> "example.com").
  /// Calling on the root returns the root.
  DnsName parent() const;

  /// The first (leftmost) n labels; n >= label_count() returns a copy.
  DnsName prefix(std::size_t n) const;

  /// The last (rightmost) n labels; n >= label_count() returns a copy.
  DnsName suffix(std::size_t n) const;

  /// Prepends a label ("www" + "example.com" -> "www.example.com").
  util::Result<DnsName> with_prefix(std::string_view label) const;

  /// Concatenates: this name becomes relative to `suffix`.
  util::Result<DnsName> under(const DnsName& suffix) const;

  /// Replaces the leftmost label with "*", for wildcard lookups. The root
  /// yields "*".
  DnsName wildcard_sibling() const;

  /// Presentation format without trailing dot; "." for the root.
  std::string to_string() const;

  /// Case-insensitive equality.
  friend bool operator==(const DnsName& a, const DnsName& b);
  friend bool operator!=(const DnsName& a, const DnsName& b) {
    return !(a == b);
  }
  /// Case-SENSITIVE equality (same bytes) — what DNS 0x20 verification
  /// needs; operator== folds case per RFC 4343.
  bool equals_exact(const DnsName& other) const;

  /// RFC 4034 §6.1 canonical ordering: right-to-left by label, each label
  /// compared as a case-folded string of unsigned octets (a shorter label
  /// that is a prefix of a longer one sorts first). Linear in the names'
  /// length; the ordered maps of the recursive resolver key on it.
  friend bool operator<(const DnsName& a, const DnsName& b);

  /// Case-folded hash consistent with operator== (the key of every hashed
  /// name index: DnsCache, Zone).
  std::size_t hash() const;

 private:
  static util::Result<void> validate_label(std::string_view label);

  bool on_heap() const { return size_ > kInlineCapacity; }
  const char* data_ptr() const { return on_heap() ? heap_ : inline_; }
  char* mutable_data() { return on_heap() ? heap_ : inline_; }

  /// Byte offset of label i (must be <= count_; count_ maps to size_).
  std::size_t offset_of(std::size_t i) const;

  /// Adopts `size` already-validated wire bytes holding `count` labels.
  static DnsName from_wire_trusted(const char* data, std::size_t size,
                                   std::size_t count);

  std::uint8_t size_;   ///< data octets used (0..254); >54 means heap
  std::uint8_t count_;  ///< number of labels
  union {
    char inline_[kInlineCapacity];
    char* heap_;  ///< kMaxData-byte buffer, active when size_ > 54
  };
};

}  // namespace mecdns::dns

template <>
struct std::hash<mecdns::dns::DnsName> {
  std::size_t operator()(const mecdns::dns::DnsName& n) const noexcept {
    return n.hash();
  }
};
