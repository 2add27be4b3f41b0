#include "obs/perf.h"

namespace mecdns::obs {

namespace detail {
// Set (pre-main) by the dynamic initializer in alloc_hooks.cc. Plain bool:
// written once before any thread exists, read-only afterwards.
bool g_alloc_hooks_linked = false;
}  // namespace detail

bool alloc_counting_active() { return detail::g_alloc_hooks_linked; }

util::perf::Counters PerfSnapshot::delta() const {
  const util::perf::Counters& now = util::perf::counters();
  util::perf::Counters d;
  d.allocs = now.allocs - at_.allocs;
  d.alloc_bytes = now.alloc_bytes - at_.alloc_bytes;
  d.frees = now.frees - at_.frees;
  d.dns_encoded = now.dns_encoded - at_.dns_encoded;
  d.dns_decoded = now.dns_decoded - at_.dns_decoded;
  d.dns_bytes_encoded = now.dns_bytes_encoded - at_.dns_bytes_encoded;
  d.dns_bytes_decoded = now.dns_bytes_decoded - at_.dns_bytes_decoded;
  d.dns_queries_sent = now.dns_queries_sent - at_.dns_queries_sent;
  d.dns_responses_received =
      now.dns_responses_received - at_.dns_responses_received;
  d.dns_queries_served = now.dns_queries_served - at_.dns_queries_served;
  d.cache_lookups = now.cache_lookups - at_.cache_lookups;
  d.events_scheduled = now.events_scheduled - at_.events_scheduled;
  d.events_fired = now.events_fired - at_.events_fired;
  return d;
}

void export_perf(Registry& registry, const std::string& prefix,
                 const util::perf::Counters& delta, std::uint64_t queries) {
  const bool allocs = alloc_counting_active();
  if (allocs) {
    registry.add(prefix + "allocs", delta.allocs);
    registry.add(prefix + "alloc_bytes", delta.alloc_bytes);
    registry.add(prefix + "frees", delta.frees);
  }
  registry.add(prefix + "dns_encoded", delta.dns_encoded);
  registry.add(prefix + "dns_decoded", delta.dns_decoded);
  registry.add(prefix + "dns_bytes_encoded", delta.dns_bytes_encoded);
  registry.add(prefix + "dns_bytes_decoded", delta.dns_bytes_decoded);
  registry.add(prefix + "dns_queries_sent", delta.dns_queries_sent);
  registry.add(prefix + "dns_responses_received",
               delta.dns_responses_received);
  registry.add(prefix + "dns_queries_served", delta.dns_queries_served);
  registry.add(prefix + "cache_lookups", delta.cache_lookups);
  registry.add(prefix + "events_scheduled", delta.events_scheduled);
  registry.add(prefix + "events_fired", delta.events_fired);
  if (queries == 0) return;
  const auto per_query = [&](const std::string& name, std::uint64_t n) {
    registry.set_gauge(prefix + name + "_per_query",
                       static_cast<double>(n) /
                           static_cast<double>(queries));
  };
  if (allocs) {
    per_query("allocs", delta.allocs);
    per_query("alloc_bytes", delta.alloc_bytes);
  }
  per_query("dns_encoded", delta.dns_encoded);
  per_query("dns_decoded", delta.dns_decoded);
  per_query("wire_bytes", delta.dns_bytes_encoded + delta.dns_bytes_decoded);
  per_query("events", delta.events_fired);
}

}  // namespace mecdns::obs
