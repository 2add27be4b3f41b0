// Quickstart: build a MEC-CDN site behind an LTE RAN, resolve a CDN domain
// at the first hop, and fetch the content from the edge cache.
//
//   $ ./build/examples/quickstart
//
// This walks the public API end to end:
//   1. a simulated network + LTE RAN segment (eNB, S-GW, NAT'ing P-GW)
//   2. a MecCdnSite: Kubernetes-like cluster with split-namespace CoreDNS
//      (the MEC L-DNS) and an in-cluster Traffic Router (the C-DNS)
//   3. a delivery service with content warmed onto the edge caches
//   4. a UE whose DNS target is the MEC L-DNS cluster IP
//   5. one resolve+fetch, with the latency breakdown printed.
#include <cstdio>

#include "core/topology.h"
#include "util/log.h"

using namespace mecdns;
namespace topology = core::topology;

int main() {
  // Narrate what the components do, each line stamped with simulated time.
  util::set_log_level(util::LogLevel::kInfo);

  // --- 1. network + RAN ------------------------------------------------------
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(/*seed=*/2026));
  const auto ran_segment = topology::add_ran(net, "lte", ran::lte());

  // --- 2. the MEC-CDN site, collocated with the P-GW (one short hop) ---------
  // Per-query routing (answer TTL 0), like the paper's testbed.
  const auto site = topology::add_site(net, *ran_segment);

  // --- 3. deploy a delivery service -------------------------------------------
  site->add_delivery_service("demo1", topology::demo_catalog());

  std::printf("MEC L-DNS cluster IP : %s\n",
              site->ldns_endpoint().to_string().c_str());
  std::printf("C-DNS cluster IP     : %s\n",
              site->cdns_endpoint().to_string().c_str());
  for (std::size_t i = 0; i < core::MecCdnSite::kEdgeCaches; ++i) {
    std::printf("edge cache %zu         : %s\n", i,
                site->cache_address(i).to_string().c_str());
  }

  // --- 4. a UE attached to the cell, DNS switched to the MEC L-DNS ------------
  ran::UserEquipment ue(net, *ran_segment, "ue", topology::ue_address(),
                        site->ldns_endpoint());

  // --- 5. resolve + fetch -------------------------------------------------------
  ue.resolve_and_fetch(
      cdn::Url::must_parse("video.demo1.mycdn.ciab.test/segment0000"),
      [&](const ran::UserEquipment::FetchOutcome& outcome) {
        if (!outcome.ok) {
          std::printf("FAILED: %s\n", outcome.error.c_str());
          return;
        }
        std::printf("\nfetched %s (%llu bytes) from %s (%s)\n",
                    outcome.response.url.to_string().c_str(),
                    static_cast<unsigned long long>(
                        outcome.response.size_bytes),
                    outcome.server.to_string().c_str(),
                    outcome.response.served_from_cache ? "edge cache hit"
                                                       : "edge miss");
        std::printf("  DNS lookup  : %6.2f ms (resolved at the first hop)\n",
                    outcome.dns_latency.to_millis());
        std::printf("  content get : %6.2f ms\n",
                    outcome.fetch_latency.to_millis());
        std::printf("  total       : %6.2f ms\n", outcome.total.to_millis());
      });
  sim.run();

  std::printf("\nnote: the UE only ever saw cluster IPs — no public IPs were "
              "dedicated to the CDN (the paper's IP-reuse property)\n");
  return 0;
}
