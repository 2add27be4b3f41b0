// TTL-aware resolver cache with negative caching (RFC 2308).
//
// The paper's Figure 2 commentary leans on caching behaviour ("the A records
// TTL never expires at L-DNS and the cached A records are used for lookup"),
// and CDN routers defeat caching with tiny TTLs so every query reaches the
// C-DNS — both effects fall out of an honest TTL cache.
//
// Storage is an open-addressing flat hash (the lookup is on every query's
// hot path) plus a lazy-deletion min-heap ordered by expiry, which makes
// full-cache eviction O(log n) instead of a linear scan over all entries.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dns/message.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "obs/journal.h"
#include "simnet/time.h"
#include "util/flat_map.h"

namespace mecdns::dns {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired = 0;
  std::uint64_t stale_hits = 0;  ///< RFC 8767 serve-stale answers
  /// Expiry-heap items examined while choosing eviction victims. With the
  /// heap this stays O(log n) amortized per eviction; a regression back to
  /// scanning would show up here as ~size() steps per eviction.
  std::uint64_t eviction_scan_steps = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// A positive or negative cached answer.
struct CachedAnswer {
  bool negative = false;
  RCode rcode = RCode::kNoError;  ///< for negative entries
  RecordList records;             ///< TTLs adjusted to remaining
  RecordList soa;                 ///< for negative entries
};

/// Cache keyed by (qname, qtype). Entries expire by wall (simulated) time;
/// when full, the entry closest to expiry is evicted.
class DnsCache {
 public:
  explicit DnsCache(std::size_t max_entries = 4096)
      : max_entries_(max_entries) {}

  /// Caches a positive RRset. TTL used is the minimum across `records`;
  /// TTL 0 answers are not cached (per RFC 1035 semantics).
  void insert(const DnsName& name, RecordType type, RecordList records,
              simnet::SimTime now);

  /// What a shared cache keeps of `response` to `question`: nothing of an
  /// answer scoped to a client subnet (scope > 0), since entries are not
  /// keyed by subnet (RFC 7871 §7.3); a negative entry for NXDOMAIN, and
  /// for NOERROR with no answer and no NS in the authority section (RFC
  /// 2308 NODATA; a referral is not NODATA); otherwise the answer records
  /// under the question.
  void insert_response(const Question& question, const Message& response,
                       simnet::SimTime now);

  /// Looks up a live entry; returns records with decremented TTLs.
  std::optional<CachedAnswer> lookup(const DnsName& name, RecordType type,
                                     simnet::SimTime now);

  /// RFC 8767 serve-stale: retain expired entries for `max_stale` past
  /// expiry so lookup_stale() can answer while the authoritative path is
  /// failing. Off by default; when off, behaviour is the classic
  /// erase-on-expiry cache.
  void set_serve_stale(bool enabled,
                       simnet::SimTime max_stale = simnet::SimTime::seconds(
                           86400));  // RFC 8767 §5 suggested ceiling: 1 day

  /// Looks up an entry within the stale window (expired but retained).
  /// Records are served with the RFC 8767 §4 recommended 30-second TTL.
  /// Returns nullopt when serve-stale is off, there is no entry, or the
  /// entry aged past max_stale.
  std::optional<CachedAnswer> lookup_stale(const DnsName& name,
                                           RecordType type,
                                           simnet::SimTime now);

  std::size_t size() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

  /// Journals the *edge into* serve-stale operation (the first stale
  /// answer after any fresh hit), not every stale hit: entering RFC 8767
  /// territory is the control-plane fact that the authoritative path is
  /// unreachable — and it is often the only detectable reaction a
  /// loss-burst fault provokes.
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

 private:
  struct Entry {
    CachedAnswer answer;
    simnet::SimTime inserted;
    simnet::SimTime expires;
    std::uint64_t seq = 0;  ///< stamp matching the live expiry-heap item
  };
  using Key = std::pair<DnsName, RecordType>;

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return k.first.hash() * 31 + static_cast<std::size_t>(k.second);
    }
  };

  /// Lazy-deletion heap item; stale when the entry was erased or
  /// overwritten (seq mismatch) since this item was pushed.
  struct HeapItem {
    simnet::SimTime expires;
    std::uint64_t seq = 0;
    Key key;
  };
  struct LaterExpiry {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.expires != b.expires) return a.expires > b.expires;
      return a.seq > b.seq;
    }
  };

  /// Caches a negative answer (NXDOMAIN or NODATA) for the SOA minimum TTL.
  void insert_negative(const DnsName& name, RecordType type, RCode rcode,
                       RecordList soa, simnet::SimTime now);
  void evict_if_full();
  void store(Key key, Entry entry);

  std::size_t max_entries_;
  bool serve_stale_ = false;
  simnet::SimTime max_stale_ = simnet::SimTime::zero();
  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;
  /// True between the first stale answer and the next fresh hit.
  bool stale_active_ = false;
  std::uint64_t next_seq_ = 1;
  util::FlatHashMap<Key, Entry, KeyHash> entries_;
  std::vector<HeapItem> expiry_heap_;  ///< min-heap by (expires, seq)
  CacheStats stats_;
};

}  // namespace mecdns::dns
