#include "cdn/consistent_hash.h"

namespace mecdns::cdn {

namespace {
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// FNV-1a alone avalanches poorly for near-identical keys ("cache-1#7" vs
// "cache-2#7"), which skews ring arcs badly; a murmur3-style finalizer
// decorrelates the positions.
std::uint64_t finalize(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}
}  // namespace

std::uint64_t ConsistentHashRing::hash(std::string_view text) {
  return finalize(fnv1a(kFnvBasis, text));
}

std::uint64_t ConsistentHashRing::hash_wire_name(
    std::string_view wire_labels) {
  if (wire_labels.empty()) return hash(".");
  std::uint64_t h = kFnvBasis;
  for (std::size_t at = 0; at < wire_labels.size();) {
    const std::size_t len = static_cast<unsigned char>(wire_labels[at]);
    if (at != 0) h = fnv1a(h, ".");
    h = fnv1a(h, wire_labels.substr(at + 1, len));
    at += 1 + len;
  }
  return finalize(h);
}

void ConsistentHashRing::add(const std::string& member) {
  if (contains(member)) return;
  for (unsigned i = 0; i < vnodes_; ++i) {
    ring_.emplace(position(member + "#" + std::to_string(i)), member);
  }
  members_.emplace(member, Member{});
}

void ConsistentHashRing::remove(const std::string& member) {
  const auto it = members_.find(member);
  if (it == members_.end()) return;
  for (unsigned i = 0; i < vnodes_; ++i) {
    const std::uint64_t pos = position(member + "#" + std::to_string(i));
    const auto [lo, hi] = ring_.equal_range(pos);
    for (auto r = lo; r != hi;) {
      if (r->second == member) {
        r = ring_.erase(r);
      } else {
        ++r;
      }
    }
  }
  members_.erase(it);
}

std::vector<std::string> ConsistentHashRing::members() const {
  std::vector<std::string> out;
  out.reserve(members_.size());
  for (const auto& [name, unused] : members_) out.push_back(name);
  return out;
}

std::optional<std::string> ConsistentHashRing::pick_hashed(
    std::uint64_t position) const {
  if (ring_.empty()) return std::nullopt;
  auto it = ring_.lower_bound(position);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

void ConsistentHashRing::set_capacity(const std::string& member,
                                      std::uint64_t capacity) {
  const auto it = members_.find(member);
  if (it != members_.end()) it->second.capacity = capacity;
}

std::uint64_t ConsistentHashRing::capacity(const std::string& member) const {
  const auto it = members_.find(member);
  return it == members_.end() ? 0 : it->second.capacity;
}

std::uint64_t ConsistentHashRing::load(const std::string& member) const {
  const auto it = members_.find(member);
  return it == members_.end() ? 0 : it->second.load;
}

void ConsistentHashRing::add_load(const std::string& member,
                                  std::uint64_t units) {
  const auto it = members_.find(member);
  if (it != members_.end()) it->second.load += units;
}

void ConsistentHashRing::reset_loads() {
  for (auto& [name, m] : members_) m.load = 0;
}

std::optional<std::string> ConsistentHashRing::pick_bounded_hashed(
    std::uint64_t position, bool* overflowed) const {
  if (overflowed != nullptr) *overflowed = false;
  if (ring_.empty()) return std::nullopt;
  auto it = ring_.lower_bound(position);
  bool first = true;
  // Walk clockwise past full members; each member appears vnodes_ times so
  // the full loop visits everyone before giving up.
  for (std::size_t steps = 0; steps < ring_.size(); ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    const auto m = members_.find(it->second);
    if (m != members_.end() && has_room(m->second)) {
      if (overflowed != nullptr) *overflowed = !first;
      return it->second;
    }
    first = false;
    ++it;
  }
  return std::nullopt;  // every member at capacity
}

double ConsistentHashRing::remap_fraction(const ConsistentHashRing& before,
                                          const ConsistentHashRing& after,
                                          std::size_t probes) {
  if (probes == 0 || before.empty() || after.empty()) return 0.0;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < probes; ++i) {
    const std::string key = "probe#" + std::to_string(i);
    if (before.pick(key) != after.pick(key)) ++moved;
  }
  return static_cast<double>(moved) / static_cast<double>(probes);
}

}  // namespace mecdns::cdn
