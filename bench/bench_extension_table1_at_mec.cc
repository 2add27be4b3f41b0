// Extension E1: the Table 1 domains, served from the MEC.
//
// §4: "This design does not impose any restrictions on the developers' use
// of domain names at MEC." To make that concrete, this bench deploys the
// five real CDN domains of Table 1 as delivery services on a MEC-CDN site
// (the C-DNS is simply made authoritative for each), and compares the
// cellular client's lookup latency against the Figure 2 baseline (carrier
// L-DNS resolving over the WAN). The paper's "what if" — the measurement
// study rerun in a world where these CDNs are MEC-CDNs.
#include <cstdio>

#include "cdn/traffic_router.h"
#include "core/study.h"
#include "core/topology.h"
#include "dns/plugin.h"
#include "mec/orchestrator.h"
#include "util/args.h"
#include "workload/domains.h"

using namespace mecdns;

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_extension_table1_at_mec: E1 Table 1 domains served from the MEC");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }

  // --- baseline: today's cellular path (from the Figure 2 study) -----------
  core::MeasurementStudy::Config study_config;
  study_config.queries_per_cell = 30;
  core::MeasurementStudy study(study_config);

  // --- the MEC world ----------------------------------------------------------
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(31337));
  const auto lte = core::topology::add_ran(net, "lte", ran::lte());

  mec::Orchestrator orchestrator(net, {});
  net.add_link(lte->pgw(), orchestrator.cluster().gateway(),
               simnet::LatencyModel::constant(
                   simnet::SimTime::millis(core::topology::kPgwToMecMs)));

  // C-DNS authoritative for *all* of the sites' CDN domains: one router,
  // delivery services rooted at the real (unchanged) domain names.
  const simnet::NodeId tr_node = orchestrator.cluster().add_worker("router");
  const mec::Deployment tr_dep =
      orchestrator.deploy("traffic-router", "cdn", tr_node, 53);
  cdn::TrafficRouter::Config trc;
  trc.cdn_domain = dns::DnsName::root();  // scope: whatever is deployed here
  trc.answer_ttl = 0;
  cdn::TrafficRouter router(net.runtime(tr_node), "mec-cdns",
                            simnet::LatencyModel::normal(
                                simnet::SimTime::millis(2.6),
                                simnet::SimTime::micros(300),
                                simnet::SimTime::millis(1)),
                            trc, dns::kDnsPort, tr_dep.cluster_ip);
  router.coverage().set_default_group("mec-edge");

  const simnet::NodeId cache_node =
      orchestrator.cluster().add_worker("cache-0");
  const mec::Deployment cache_dep =
      orchestrator.deploy("edge-cache-0", "cdn", cache_node, 20);
  cdn::CacheServer cache(net.runtime(cache_node), "edge-cache-0", {},
                         cdn::kContentPort, cache_dep.cluster_ip);
  router.add_cache("mec-edge",
                   cdn::CacheInfo{"edge-cache-0", cache_dep.cluster_ip, true});
  for (const auto& entry : workload::table1_domains()) {
    router.add_delivery_service(cdn::DeliveryService{
        entry.website, dns::DnsName::must_parse(entry.cdn_domain),
        {"mec-edge"}});
  }

  // MEC L-DNS: internal view + a public view forwarding everything at the
  // first hop to the collocated C-DNS.
  const simnet::NodeId dns_node = orchestrator.cluster().add_worker("infra");
  const mec::Deployment dns_dep =
      orchestrator.deploy("kube-dns", "kube-system", dns_node, 10);
  dns::PluginChainServer ldns(net.runtime(dns_node), "mec-coredns",
                              simnet::LatencyModel::normal(
                                  simnet::SimTime::millis(2.4),
                                  simnet::SimTime::micros(300),
                                  simnet::SimTime::millis(1)),
                              dns::kDnsPort, dns_dep.cluster_ip);
  dns::PluginChain& internal = ldns.add_view(
      "internal", {orchestrator.cluster().config().node_cidr,
                   orchestrator.cluster().config().service_cidr});
  internal.add(std::make_unique<dns::ZonePlugin>(
      orchestrator.registry().zone()));
  internal.add(std::make_unique<dns::RefusePlugin>());
  dns::PluginChain& pub = ldns.add_default_view("public");
  pub.add(std::make_unique<dns::ForwardPlugin>(
      dns::DnsName::root(),
      std::vector<simnet::Endpoint>{{tr_dep.cluster_ip, dns::kDnsPort}},
      ldns.transport()));

  ran::UserEquipment ue(net, *lte, "ue", core::topology::ue_address(),
                        simnet::Endpoint{dns_dep.cluster_ip, dns::kDnsPort});

  std::printf("=== E1: Table 1 domains served from the MEC (paper: no "
              "domain-name restrictions) ===\n");
  std::printf("%-14s %-24s %16s %14s %8s\n", "website", "domain",
              "cellular today", "cellular+MEC", "gain");

  const auto& profiles = workload::figure3_profiles();
  for (std::size_t site = 0; site < profiles.size(); ++site) {
    const auto baseline =
        study.run_cell(site, workload::kCellularMobile).trimmed.mean;

    core::QueryRunner runner(net, ue.resolver(), nullptr);
    core::QueryRunner::Options options;
    options.queries = 30;
    options.warmup = 1;
    options.spacing = simnet::SimTime::millis(500);
    const core::SeriesResult result = runner.run(
        dns::DnsName::must_parse(profiles[site].cdn_domain),
        dns::RecordType::kA, options);

    std::printf("%-14s %-24s %13.1f ms %11.1f ms %7.1fx\n",
                profiles[site].website.c_str(),
                profiles[site].cdn_domain.c_str(), baseline,
                result.totals().mean(), baseline / result.totals().mean());
  }
  std::printf(
      "\nreading: the same unchanged CDN domains resolve at the first hop "
      "once deployed as MEC delivery\nservices — every site drops to the "
      "MEC latency envelope without URL or app changes.\n");
  return 0;
}
