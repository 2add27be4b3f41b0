// Hot-path performance counters: thread-local, branch-free, always on.
//
// The million-UE load generator needs cost-per-query numbers (allocations,
// wire bytes, simulator events) that are (a) cheap enough to leave enabled
// in the hot path and (b) deterministic under the parallel campaign runner.
// A registry map lookup per event is neither, so the instrumented layers
// (dns/wire, dns/transport, dns/server, dns/cache, simnet/simulator and the
// operator new/delete hooks in obs/alloc_hooks.cc) bump plain thread_local
// uint64 fields instead — one TLS access and one add, no locks, no heap.
//
// The struct lives in util (the bottom of the dependency stack) so simnet
// can bump counters without depending on obs; obs/perf.h layers snapshots
// and obs::Registry export on top.
//
// Determinism contract: campaign jobs run start-to-finish on one worker
// thread, so a (snapshot, run, delta) sequence inside a job body observes
// exactly that job's activity — identical for any --workers value.
#pragma once

#include <cstdint>

namespace mecdns::util::perf {

/// Monotonic per-thread counters. All zero-initialized; wrap-around is a
/// non-issue at simulation scale (2^64 events).
struct Counters {
  // Filled by the global operator new/delete replacements when a binary
  // links obs/alloc_hooks.cc (see obs::alloc_counting_active()).
  std::uint64_t allocs = 0;        ///< operator new calls
  std::uint64_t alloc_bytes = 0;   ///< bytes requested through operator new
  std::uint64_t frees = 0;         ///< operator delete calls

  // DNS wire codec (dns/wire.cc).
  std::uint64_t dns_encoded = 0;        ///< messages encoded to wire
  /// Messages decoded, failures included. A header-only parse
  /// (dns::decode_header, the P-GW tap's) counts as one decoded message.
  std::uint64_t dns_decoded = 0;
  std::uint64_t dns_bytes_encoded = 0;  ///< wire bytes produced
  std::uint64_t dns_bytes_decoded = 0;  ///< wire bytes seen by decodes

  // Client transaction layer (dns/transport.cc).
  std::uint64_t dns_queries_sent = 0;       ///< send attempts (incl. retries)
  std::uint64_t dns_responses_received = 0; ///< packets matched to a txn

  // Server side (dns/server.cc) and cache (dns/cache.cc).
  std::uint64_t dns_queries_served = 0;  ///< queries entering a DnsServer
  std::uint64_t cache_lookups = 0;       ///< DnsCache::lookup calls

  // Discrete-event simulator (simnet/simulator.cc).
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_fired = 0;

  // Arena/pool growth (util/arena.h). Each chunk an arena fetches from the
  // general heap counts here (the operator-new hooks still see it in
  // `allocs`), so a steady state of zero refills is distinguishable from
  // "the pools are churning": allocs/query near zero + pool_refills flat
  // means the scratch capacity has converged.
  std::uint64_t pool_refills = 0;
};

/// The calling thread's counters. The reference is stable for the thread's
/// lifetime, so hot loops may cache it.
inline Counters& counters() {
  thread_local Counters c;
  return c;
}

}  // namespace mecdns::util::perf
