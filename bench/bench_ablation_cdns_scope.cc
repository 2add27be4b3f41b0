// Ablation A3: C-DNS scope and cache-selection accuracy.
//
// §3 P2: "By placing a C-DNS at MEC, it can have a scope limited only to
// the cache server instances at the edge location. As such, we allow it to
// find the right cache instance ... more quickly, because the content
// server is implicitly available and there are (likely) fewer cache servers
// to be considered." A wide-scope router must instead geo-locate the
// resolver with an imperfect GeoIP database (§1: "limited accuracy").
//
// This bench compares an edge-scoped router (coverage zone, 1 group)
// against a global router (N groups, GeoIP fallback with a configurable
// mislocation rate): selection accuracy = share of answers in the client's
// true nearest group.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cdn/traffic_router.h"
#include "core/parallel.h"
#include "dns/stub.h"
#include "ran/profiles.h"
#include "util/args.h"

using namespace mecdns;

namespace {

struct Outcome {
  double accuracy;  ///< answers routed to the true nearest group
  double mean_ms;   ///< lookup latency
};

Outcome run(std::size_t groups, std::size_t caches_per_group,
            double mislocate_probability, bool use_coverage,
            std::uint64_t seed) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(seed));
  const auto client_addr = simnet::Ipv4Address::must_parse("203.0.113.10");
  const auto router_addr = simnet::Ipv4Address::must_parse("198.51.100.53");
  const simnet::NodeId client = net.add_node("client", client_addr);
  const simnet::NodeId router_node = net.add_node("router", router_addr);
  net.add_link(client, router_node, ran::lan_link());

  cdn::TrafficRouter::Config config;
  config.cdn_domain = dns::DnsName::must_parse("cdn.test");
  config.answer_ttl = 0;
  cdn::TrafficRouter router(net.runtime(router_node), "router",
                            simnet::LatencyModel::constant(
                                simnet::SimTime::millis(1.0)),
                            config, dns::kDnsPort, router_addr);

  // Group g sits at (100*g, 0) km; the client is at the origin, so group 0
  // is the true nearest. Each group's caches get addresses 10.g.0.x.
  cdn::DeliveryService service;
  service.id = "video";
  service.domain = dns::DnsName::must_parse("video.cdn.test");
  for (std::size_t g = 0; g < groups; ++g) {
    const std::string group = "group-" + std::to_string(g);
    service.cache_groups.push_back(group);
    for (std::size_t c = 0; c < caches_per_group; ++c) {
      router.add_cache(group, cdn::CacheInfo{
          group + "-cache-" + std::to_string(c),
          simnet::Ipv4Address(static_cast<std::uint8_t>(10),
                              static_cast<std::uint8_t>(g), 0,
                              static_cast<std::uint8_t>(c + 1)),
          true});
    }
    // group_locations drives the geo fallback's distance choice.
    router.set_group_location(group,
                              cdn::GeoPoint{100.0 * static_cast<double>(g),
                                            0.0});
  }
  router.add_delivery_service(service);

  if (use_coverage) {
    router.coverage().add(simnet::Cidr(client_addr, 24), "group-0");
  } else {
    cdn::GeoIpDatabase db(cdn::GeoAccuracy{mislocate_probability, 0.0}, 7);
    db.add(simnet::Cidr(client_addr, 24), cdn::GeoPoint{0.0, 0.0}, "client");
    for (std::size_t g = 1; g < groups; ++g) {
      // Other database rows a mislocation can land on.
      db.add(simnet::Cidr(simnet::Ipv4Address(
                              static_cast<std::uint8_t>(20 + g), 0, 0, 0),
                          8),
             cdn::GeoPoint{100.0 * static_cast<double>(g), 0.0},
             "region-" + std::to_string(g));
    }
    router.geo() = std::move(db);
  }

  dns::StubResolver stub(net.runtime(client),
                         simnet::Endpoint{router_addr, dns::kDnsPort});
  const dns::DnsName qname = dns::DnsName::must_parse("video.cdn.test");

  std::size_t correct = 0;
  std::size_t total = 0;
  double latency_sum = 0.0;
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(sim.now() + simnet::SimTime::millis(50.0 * (i + 1)),
                    [&stub, &qname, &correct, &total, &latency_sum] {
                      stub.resolve(qname, dns::RecordType::kA,
                                   [&](const dns::StubResult& result) {
                                     if (!result.ok ||
                                         !result.address.has_value()) {
                                       return;
                                     }
                                     ++total;
                                     latency_sum +=
                                         result.latency.to_millis();
                                     // group-0 caches live in 10.0.0.0/16.
                                     if ((result.address->value() >> 16) ==
                                         (10u << 8)) {
                                       ++correct;
                                     }
                                   });
                    });
  }
  sim.run();
  Outcome outcome;
  outcome.accuracy =
      total == 0 ? 0.0 : static_cast<double>(correct) / total;
  outcome.mean_ms = total == 0 ? 0.0 : latency_sum / total;
  return outcome;
}

/// One row of the sweep: a configuration plus its printed label.
struct Spec {
  std::string label;
  std::size_t groups;
  double mislocate;
  bool use_coverage;
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_ablation_cdns_scope: A3 C-DNS scope ablation");
  args.add_int("seed", 99,
               "campaign seed; each configuration runs with "
               "split_mix64(seed ^ row_index)");
  args.add_int("workers", 0,
               "parallel campaign workers (0 = hardware concurrency, "
               "1 = serial); output is byte-identical for any value");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }

  std::vector<Spec> specs;
  specs.push_back(
      Spec{"edge-scoped (coverage zone, 1 group x 4)", 1, 0.0, true});
  for (const double miss : {0.0, 0.1, 0.2, 0.4}) {
    for (const std::size_t groups : {4ul, 16ul, 64ul}) {
      char label[80];
      std::snprintf(label, sizeof(label),
                    "global (GeoIP %.0f%% mislocation, %zu groups)",
                    miss * 100, groups);
      specs.push_back(Spec{label, groups, miss, false});
    }
  }

  // Each row is one campaign job with a private simulator and derived seed,
  // so no row's answer mix depends on the rows before it.
  const auto campaign_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const core::ParallelCampaign campaign(
      core::resolve_workers(args.get_int("workers")));
  const auto outcomes = campaign.run<Outcome>(
      specs.size(), [&](std::size_t index) {
        const Spec& spec = specs[index];
        return run(spec.groups, 4, spec.mislocate, spec.use_coverage,
                   core::job_seed(campaign_seed, index));
      });

  std::printf("=== A3: C-DNS scope — edge coverage zone vs global GeoIP ===\n");
  std::printf("%-44s %10s %10s\n", "configuration", "accuracy", "mean(ms)");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) {
      std::fprintf(stderr, "error: %s failed: %s\n", specs[i].label.c_str(),
                   outcomes[i].error.c_str());
      return 1;
    }
    const Outcome& outcome = outcomes[i].value;
    std::printf("%-44s %9.0f%% %10.2f\n", specs[i].label.c_str(),
                100 * outcome.accuracy, outcome.mean_ms);
  }
  std::printf(
      "\nexpected shape: the edge-scoped router is always correct; global "
      "GeoIP routing degrades\nwith database error, mis-routing clients to "
      "distant cache groups\n");
  return 0;
}
