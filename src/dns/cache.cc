#include "dns/cache.h"

#include <algorithm>

#include "util/perfcount.h"

namespace mecdns::dns {

namespace {
std::uint32_t min_ttl(const RecordList& records) {
  std::uint32_t ttl = ~std::uint32_t{0};
  for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
  return records.empty() ? 0 : ttl;
}
}  // namespace

void DnsCache::store(Key key, Entry entry) {
  entry.seq = next_seq_++;
  expiry_heap_.push_back(HeapItem{entry.expires, entry.seq, key});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
  entries_[key] = std::move(entry);
  ++stats_.insertions;
}

void DnsCache::insert(const DnsName& name, RecordType type,
                      RecordList records, simnet::SimTime now) {
  const std::uint32_t ttl = min_ttl(records);
  if (ttl == 0 || records.empty()) return;
  evict_if_full();
  Entry entry;
  entry.answer.records = std::move(records);
  entry.inserted = now;
  entry.expires = now + simnet::SimTime::seconds(static_cast<double>(ttl));
  store({name, type}, std::move(entry));
}

void DnsCache::insert_negative(const DnsName& name, RecordType type,
                               RCode rcode, RecordList soa,
                               simnet::SimTime now) {
  std::uint32_t ttl = 0;
  for (const auto& rr : soa) {
    if (const auto* s = std::get_if<SoaRecord>(&rr.rdata)) {
      // RFC 2308: negative TTL = min(SOA TTL, SOA.minimum).
      ttl = std::min(rr.ttl, s->minimum);
    }
  }
  if (ttl == 0) return;
  evict_if_full();
  Entry entry;
  entry.answer.negative = true;
  entry.answer.rcode = rcode;
  entry.answer.soa = std::move(soa);
  entry.inserted = now;
  entry.expires = now + simnet::SimTime::seconds(static_cast<double>(ttl));
  store({name, type}, std::move(entry));
}

void DnsCache::insert_response(const Question& question,
                               const Message& response, simnet::SimTime now) {
  if (response.edns.has_value() && response.edns->client_subnet.has_value() &&
      response.edns->client_subnet->scope_prefix > 0) {
    return;
  }
  const RCode rcode = response.header.rcode;
  if (rcode == RCode::kNoError && !response.answers.empty()) {
    insert(question.name, question.type, response.answers, now);
    return;
  }
  const bool referral = std::any_of(
      response.authorities.begin(), response.authorities.end(),
      [](const ResourceRecord& rr) { return rr.type == RecordType::kNs; });
  if (rcode == RCode::kNxDomain || (rcode == RCode::kNoError && !referral)) {
    insert_negative(question.name, question.type, rcode,
                    response.authorities, now);
  }
}

std::optional<CachedAnswer> DnsCache::lookup(const DnsName& name,
                                             RecordType type,
                                             simnet::SimTime now) {
  ++util::perf::counters().cache_lookups;
  const auto it = entries_.find({name, type});
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.expires <= now) {
    // With serve-stale on, an expired entry inside the stale window stays
    // resident for lookup_stale(); it is still a miss here so the normal
    // refresh path runs.
    if (!serve_stale_ || it->second.expires + max_stale_ <= now) {
      entries_.erase(it->first);
      ++stats_.expired;
    }
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  stale_active_ = false;
  CachedAnswer answer = it->second.answer;
  const auto elapsed_s = static_cast<std::uint32_t>(
      (now - it->second.inserted).to_seconds());
  for (auto& rr : answer.records) {
    rr.ttl = rr.ttl > elapsed_s ? rr.ttl - elapsed_s : 0;
  }
  return answer;
}

void DnsCache::set_serve_stale(bool enabled, simnet::SimTime max_stale) {
  serve_stale_ = enabled;
  max_stale_ = enabled ? max_stale : simnet::SimTime::zero();
}

std::optional<CachedAnswer> DnsCache::lookup_stale(const DnsName& name,
                                                   RecordType type,
                                                   simnet::SimTime now) {
  if (!serve_stale_) return std::nullopt;
  const auto it = entries_.find({name, type});
  if (it == entries_.end()) return std::nullopt;
  // A live entry is lookup()'s to serve; "stale" strictly means past expiry.
  if (now < it->second.expires) return std::nullopt;
  if (it->second.expires + max_stale_ <= now) {
    entries_.erase(it->first);
    ++stats_.expired;
    return std::nullopt;
  }
  ++stats_.stale_hits;
  if (!stale_active_) {
    stale_active_ = true;
    if (journal_ != nullptr) {
      journal_->record(now, obs::JournalKind::kStaleServe, journal_cell_,
                       "serving stale past expiry",
                       max_stale_.count_nanos() > 0
                           ? static_cast<std::uint64_t>(max_stale_.to_seconds())
                           : 0);
    }
  }
  CachedAnswer answer = it->second.answer;
  // RFC 8767 §4: stale data is served with a short TTL so clients re-try
  // the authoritative path soon.
  constexpr std::uint32_t kStaleTtl = 30;
  for (auto& rr : answer.records) rr.ttl = kStaleTtl;
  return answer;
}

void DnsCache::evict_if_full() {
  if (entries_.size() < max_entries_) return;
  // Pop heap items until one still names a live entry; stale items (erased
  // or overwritten since they were pushed) are discarded along the way.
  while (!expiry_heap_.empty()) {
    ++stats_.eviction_scan_steps;
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry{});
    HeapItem item = std::move(expiry_heap_.back());
    expiry_heap_.pop_back();
    const auto it = entries_.find(item.key);
    if (it == entries_.end() || it->second.seq != item.seq) continue;
    entries_.erase(item.key);
    ++stats_.evictions;
    return;
  }
}

}  // namespace mecdns::dns
