// Snapshot exporters: component counters -> obs::Registry.
//
// Components keep their own cheap stats structs on the hot path; these
// helpers copy them into a registry under a dotted name prefix when a dump
// is requested. Exporting is pull-based and costs nothing until called.
#pragma once

#include <string>

#include "cdn/cache_server.h"
#include "cdn/traffic_router.h"
#include "dns/cache.h"
#include "dns/server.h"
#include "dns/transport.h"
#include "mec/ingress.h"
#include "obs/metrics.h"

namespace mecdns::core {

inline void export_stats(obs::Registry& registry, const std::string& prefix,
                         const dns::ServerStats& stats) {
  registry.add(prefix + "queries", stats.queries);
  registry.add(prefix + "responses", stats.responses);
  registry.add(prefix + "malformed", stats.malformed);
  registry.add(prefix + "refused", stats.refused);
  registry.add(prefix + "nxdomain", stats.nxdomain);
  registry.add(prefix + "servfail", stats.servfail);
  registry.add(prefix + "truncated", stats.truncated);
}

inline void export_server(obs::Registry& registry, const std::string& prefix,
                          const dns::DnsServer& server) {
  export_stats(registry, prefix, server.stats());
  registry.add(prefix + "dropped_overflow", server.dropped_overflow());
  // High-water mark of the worker FIFO: gauges max-combine on merge, which
  // is exactly the right semantic for a peak.
  registry.set_gauge_max(prefix + "queue_depth_peak",
                         static_cast<double>(server.max_queue_depth()));
}

inline void export_transport(obs::Registry& registry,
                             const std::string& prefix,
                             const dns::DnsTransport& transport) {
  registry.add(prefix + "timeouts", transport.timeouts());
  registry.add(prefix + "retransmissions", transport.retransmissions());
  registry.add(prefix + "tc_retries", transport.tc_retries());
  registry.add(prefix + "servfails", transport.servfails());
  registry.add(prefix + "failovers", transport.failovers());
}

inline void export_stats(obs::Registry& registry, const std::string& prefix,
                         const dns::CacheStats& stats) {
  registry.add(prefix + "hits", stats.hits);
  registry.add(prefix + "misses", stats.misses);
  registry.add(prefix + "insertions", stats.insertions);
  registry.add(prefix + "evictions", stats.evictions);
  registry.add(prefix + "expired", stats.expired);
  registry.add(prefix + "stale_hits", stats.stale_hits);
}

inline void export_stats(obs::Registry& registry, const std::string& prefix,
                         const cdn::RouterStats& stats) {
  registry.add(prefix + "routed", stats.routed);
  registry.add(prefix + "referred_to_parent", stats.referred_to_parent);
  registry.add(prefix + "no_cache_available", stats.no_cache_available);
  registry.add(prefix + "coverage_hits", stats.coverage_hits);
  registry.add(prefix + "geo_fallbacks", stats.geo_fallbacks);
  registry.add(prefix + "ecs_localized", stats.ecs_localized);
  registry.add(prefix + "alloc.bounded_overflows", stats.bounded_overflows);
  registry.add(prefix + "alloc.capacity_exhausted", stats.capacity_exhausted);
  registry.add(prefix + "alloc_churn.topology_changes",
               stats.topology_changes);
  registry.set_gauge(prefix + "alloc_churn.last_fraction",
                     stats.last_remap_fraction);
  registry.set_gauge_max(prefix + "alloc_churn.max_fraction",
                         stats.max_remap_fraction);
}

inline void export_router(obs::Registry& registry, const std::string& prefix,
                          const cdn::TrafficRouter& router) {
  export_server(registry, prefix, router);
  export_stats(registry, prefix, router.router_stats());
  for (const auto& [cache, count] : router.selections()) {
    registry.add(prefix + "selected." + cache, count);
  }
}

/// Ingress-guard state machine under `prefix` (conventionally ending in
/// "mec.ingress."): admission/shed counters, hysteresis transitions, and
/// the current mode as a gauge — enough for mecdns_report to show *why* a
/// window failed its SLO.
inline void export_ingress(obs::Registry& registry, const std::string& prefix,
                           const mec::OverloadGuardPlugin& guard) {
  registry.add(prefix + "admitted", guard.admitted());
  registry.add(prefix + "shed", guard.shed());
  registry.add(prefix + "shed_queue_full", guard.shed_queue_full());
  registry.add(prefix + "trips", guard.trips());
  registry.add(prefix + "recoveries", guard.recoveries());
  registry.set_gauge(prefix + "shedding", guard.shedding() ? 1.0 : 0.0);
}

inline void export_stats(obs::Registry& registry, const std::string& prefix,
                         const cdn::CacheServerStats& stats) {
  registry.add(prefix + "requests", stats.requests);
  registry.add(prefix + "hits", stats.hits);
  registry.add(prefix + "misses", stats.misses);
  registry.add(prefix + "parent_fetches", stats.parent_fetches);
  registry.add(prefix + "parent_failures", stats.parent_failures);
  registry.add(prefix + "not_found", stats.not_found);
  registry.add(prefix + "evictions", stats.evictions);
  registry.add(prefix + "bytes_served", stats.bytes_served);
}

}  // namespace mecdns::core
