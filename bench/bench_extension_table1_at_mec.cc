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

#include "core/study.h"
#include "core/topology.h"
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

  // One MEC-CDN site whose C-DNS is authoritative for *all* of the sites'
  // CDN domains: the root as its CDN apex, so the L-DNS forwards every
  // public query to the collocated C-DNS, and one delivery service rooted
  // at each real (unchanged) domain name.
  core::MecCdnSite::Config config;
  config.cdn_domain = dns::DnsName::root();
  config.answer_ttl = 0;
  config.ldns_processing = core::topology::server_processing(2.4);
  config.cdns_processing = core::topology::server_processing(2.6);
  const auto site = core::topology::add_site(net, *lte, std::move(config));
  for (const auto& entry : workload::table1_domains()) {
    site->add_delivery_service(entry.cdn_domain, {}, /*warm_caches=*/false);
  }

  ran::UserEquipment ue(net, *lte, "ue", core::topology::ue_address(),
                        site->ldns_endpoint());

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
