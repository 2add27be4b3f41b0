#include "dns/name.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>

namespace mecdns::dns {

namespace {
// Case-folded bytewise comparison over wire-label bytes. Length prefixes
// are 1..63, a range ascii_fold never remaps, so folding the whole run
// (prefixes included) is equivalent to folding only the label characters.
bool wire_equal_icase(const char* a, const char* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (ascii_fold(a[i]) != ascii_fold(b[i])) return false;
  }
  return true;
}

// A label takes at least two wire octets, so no name has more labels.
constexpr std::size_t kMaxLabels = DnsName::kMaxData / 2;

// Byte offset of every label of the wire run `d` (`count` labels).
void label_offsets(const char* d, std::size_t count, std::uint8_t* out) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::uint8_t>(at);
    at += 1 + static_cast<unsigned char>(d[at]);
  }
}
}  // namespace

DnsName::DnsName(const DnsName& other)
    : size_(other.size_), count_(other.count_) {
  if (other.on_heap()) {
    heap_ = new char[kMaxData];
    std::memcpy(heap_, other.heap_, size_);
  } else {
    std::memcpy(inline_, other.inline_, size_);
  }
}

DnsName::DnsName(DnsName&& other) noexcept
    : size_(other.size_), count_(other.count_) {
  if (other.on_heap()) {
    heap_ = other.heap_;
    other.size_ = 0;
    other.count_ = 0;
  } else {
    std::memcpy(inline_, other.inline_, size_);
  }
}

DnsName& DnsName::operator=(const DnsName& other) {
  if (this == &other) return *this;
  if (on_heap()) delete[] heap_;
  size_ = other.size_;
  count_ = other.count_;
  if (other.on_heap()) {
    heap_ = new char[kMaxData];
    std::memcpy(heap_, other.heap_, size_);
  } else {
    std::memcpy(inline_, other.inline_, size_);
  }
  return *this;
}

DnsName& DnsName::operator=(DnsName&& other) noexcept {
  if (this == &other) return *this;
  if (on_heap()) delete[] heap_;
  size_ = other.size_;
  count_ = other.count_;
  if (other.on_heap()) {
    heap_ = other.heap_;
    other.size_ = 0;
    other.count_ = 0;
  } else {
    std::memcpy(inline_, other.inline_, size_);
  }
  return *this;
}

DnsName::~DnsName() {
  if (on_heap()) delete[] heap_;
}

util::Result<void> DnsName::validate_label(std::string_view label) {
  if (label.empty()) return util::Err("empty label");
  if (label.size() > 63) {
    return util::Err("label exceeds 63 octets: " + std::string(label));
  }
  // RFC 1035 hostnames are stricter, but DNS itself is 8-bit clean; we
  // forbid only '.' (structural) and whitespace/control characters, which
  // keeps presentation parsing unambiguous.
  for (const char c : label) {
    if (c == '.' || std::isspace(static_cast<unsigned char>(c)) ||
        std::iscntrl(static_cast<unsigned char>(c))) {
      return util::Err("invalid character in label");
    }
  }
  return util::Ok();
}

util::Result<void> DnsName::append_label(std::string_view label) {
  auto valid = validate_label(label);
  if (!valid.ok()) return valid.error();
  const std::size_t next = std::size_t{size_} + 1 + label.size();
  if (next > kMaxData) return util::Err("name exceeds 255 octets");
  if (!on_heap() && next > kInlineCapacity) {
    // Crossing into heap storage: one fixed-size buffer covers any name.
    char* heap = new char[kMaxData];
    std::memcpy(heap, inline_, size_);
    heap_ = heap;
  }
  // on_heap() keys off size_, which still holds the old length — write
  // through the pointer we just decided on.
  char* dst = (next > kInlineCapacity) ? heap_ : inline_;
  dst[size_] = static_cast<char>(label.size());
  std::memcpy(dst + size_ + 1, label.data(), label.size());
  size_ = static_cast<std::uint8_t>(next);
  ++count_;
  return util::Ok();
}

util::Result<DnsName> DnsName::parse(std::string_view text) {
  if (text.empty()) return util::Err("empty name");
  if (text == ".") return DnsName();
  if (text.back() == '.') text.remove_suffix(1);
  DnsName name;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label =
        dot == std::string_view::npos ? text.substr(start)
                                      : text.substr(start, dot - start);
    auto appended = name.append_label(label);
    if (!appended.ok()) return appended.error();
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return name;
}

DnsName DnsName::must_parse(std::string_view text) {
  auto result = parse(text);
  if (!result.ok()) {
    throw std::invalid_argument("invalid DNS name '" + std::string(text) +
                                "': " + result.error().message);
  }
  return std::move(result).value();
}

util::Result<DnsName> DnsName::from_labels(std::vector<std::string> labels) {
  DnsName name;
  for (const auto& label : labels) {
    auto appended = name.append_label(label);
    if (!appended.ok()) return appended.error();
  }
  return name;
}

DnsName DnsName::from_wire_trusted(const char* data, std::size_t size,
                                   std::size_t count) {
  DnsName name;
  name.size_ = static_cast<std::uint8_t>(size);
  name.count_ = static_cast<std::uint8_t>(count);
  if (name.on_heap()) {
    name.heap_ = new char[kMaxData];
    std::memcpy(name.heap_, data, size);
  } else {
    std::memcpy(name.inline_, data, size);
  }
  return name;
}

std::size_t DnsName::offset_of(std::size_t i) const {
  const char* d = data_ptr();
  std::size_t at = 0;
  for (std::size_t k = 0; k < i; ++k) {
    at += 1 + static_cast<unsigned char>(d[at]);
  }
  return at;
}

std::string_view DnsName::label(std::size_t i) const {
  if (i >= count_) throw std::out_of_range("DnsName::label index");
  const char* d = data_ptr();
  const std::size_t at = offset_of(i);
  const std::size_t len = static_cast<unsigned char>(d[at]);
  return {d + at + 1, len};
}

std::vector<std::string> DnsName::labels() const {
  std::vector<std::string> out;
  out.reserve(count_);
  const char* d = data_ptr();
  std::size_t at = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t len = static_cast<unsigned char>(d[at]);
    out.emplace_back(d + at + 1, len);
    at += 1 + len;
  }
  return out;
}

bool DnsName::is_subdomain_of(const DnsName& ancestor) const {
  if (ancestor.count_ > count_) return false;
  const std::size_t at = offset_of(count_ - ancestor.count_);
  if (size_ - at != ancestor.size_) return false;
  return wire_equal_icase(data_ptr() + at, ancestor.data_ptr(),
                          ancestor.size_);
}

DnsName DnsName::parent() const {
  if (count_ <= 1) return DnsName();
  const std::size_t drop = 1 + static_cast<unsigned char>(data_ptr()[0]);
  return from_wire_trusted(data_ptr() + drop, size_ - drop, count_ - 1);
}

DnsName DnsName::prefix(std::size_t n) const {
  if (n >= count_) return *this;
  return from_wire_trusted(data_ptr(), offset_of(n), n);
}

DnsName DnsName::suffix(std::size_t n) const {
  if (n >= count_) return *this;
  const std::size_t at = offset_of(count_ - n);
  return from_wire_trusted(data_ptr() + at, size_ - at, n);
}

util::Result<DnsName> DnsName::with_prefix(std::string_view label) const {
  DnsName name;
  auto appended = name.append_label(label);
  if (!appended.ok()) return appended.error();
  const std::size_t next = std::size_t{name.size_} + size_;
  if (next > kMaxData) return util::Err("name exceeds 255 octets");
  if (!name.on_heap() && next > kInlineCapacity) {
    char* heap = new char[kMaxData];
    std::memcpy(heap, name.inline_, name.size_);
    name.heap_ = heap;
  }
  char* dst = (next > kInlineCapacity) ? name.heap_ : name.inline_;
  std::memcpy(dst + name.size_, data_ptr(), size_);
  name.size_ = static_cast<std::uint8_t>(next);
  name.count_ = static_cast<std::uint8_t>(count_ + 1);
  return name;
}

util::Result<DnsName> DnsName::under(const DnsName& suffix) const {
  const std::size_t next = std::size_t{size_} + suffix.size_;
  if (next > kMaxData) return util::Err("name exceeds 255 octets");
  DnsName name = *this;
  if (!name.on_heap() && next > kInlineCapacity) {
    char* heap = new char[kMaxData];
    std::memcpy(heap, name.inline_, name.size_);
    name.heap_ = heap;
  }
  char* dst = (next > kInlineCapacity) ? name.heap_ : name.inline_;
  std::memcpy(dst + name.size_, suffix.data_ptr(), suffix.size_);
  name.size_ = static_cast<std::uint8_t>(next);
  name.count_ = static_cast<std::uint8_t>(count_ + suffix.count_);
  return name;
}

DnsName DnsName::wildcard_sibling() const {
  DnsName base = is_root() ? DnsName() : parent();
  DnsName star;
  (void)star.append_label("*");
  auto joined = star.under(base);
  // "*" plus a parent of a valid name always fits (we dropped a label of
  // >= 1 octet and added a 1-octet one).
  return std::move(joined).value();
}

std::string DnsName::to_string() const {
  if (count_ == 0) return ".";
  std::string out;
  out.reserve(size_);
  const char* d = data_ptr();
  std::size_t at = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t len = static_cast<unsigned char>(d[at]);
    if (i != 0) out.push_back('.');
    out.append(d + at + 1, len);
    at += 1 + len;
  }
  return out;
}

bool operator==(const DnsName& a, const DnsName& b) {
  if (a.size_ != b.size_ || a.count_ != b.count_) return false;
  return wire_equal_icase(a.data_ptr(), b.data_ptr(), a.size_);
}

bool DnsName::equals_exact(const DnsName& other) const {
  if (size_ != other.size_ || count_ != other.count_) return false;
  return std::memcmp(data_ptr(), other.data_ptr(), size_) == 0;
}

bool operator<(const DnsName& a, const DnsName& b) {
  // Compare right-to-left by label: one walk per name finds the label
  // offsets, then each label pair is compared once.
  std::uint8_t offs_a[kMaxLabels];
  std::uint8_t offs_b[kMaxLabels];
  const char* da = a.data_ptr();
  const char* db = b.data_ptr();
  label_offsets(da, a.count_, offs_a);
  label_offsets(db, b.count_, offs_b);
  std::size_t ia = a.count_;
  std::size_t ib = b.count_;
  while (ia > 0 && ib > 0) {
    const char* la = da + offs_a[ia - 1];
    const char* lb = db + offs_b[ib - 1];
    const std::size_t na = static_cast<unsigned char>(*la++);
    const std::size_t nb = static_cast<unsigned char>(*lb++);
    const std::size_t n = std::min(na, nb);
    for (std::size_t i = 0; i < n; ++i) {
      const auto ca = static_cast<unsigned char>(ascii_fold(la[i]));
      const auto cb = static_cast<unsigned char>(ascii_fold(lb[i]));
      if (ca != cb) return ca < cb;
    }
    if (na != nb) return na < nb;
    --ia;
    --ib;
  }
  return ia < ib;
}

std::size_t DnsName::hash() const {
  std::size_t h = 14695981039346656037ULL;
  const char* d = data_ptr();
  std::size_t at = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t len = static_cast<unsigned char>(d[at]);
    for (std::size_t k = 0; k < len; ++k) {
      h ^= static_cast<std::size_t>(ascii_fold(d[at + 1 + k]));
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // label separator so {"ab","c"} != {"a","bc"}
    h *= 1099511628211ULL;
    at += 1 + len;
  }
  return h;
}

}  // namespace mecdns::dns
