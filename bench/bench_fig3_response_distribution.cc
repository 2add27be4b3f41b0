// Figure 3: distribution of DNS responses among different cache servers.
//
// Regenerates the paper's horizontal stacked bars: for each site and access
// network, the share of answers falling in each provider CIDR pool. The
// paper's observation 2 — "although clients send requests from a similar
// geo-location, they are not guaranteed to access the content from the same
// set of cache servers" — shows up as per-network differences in the mix.
#include <cstdio>
#include <string>

#include "core/study.h"
#include "util/args.h"

using namespace mecdns;

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_fig3: Figure 3 distribution of DNS responses among cache pools");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }

  core::MeasurementStudy::Config config;
  config.queries_per_cell = 60;  // more samples for stable shares
  core::MeasurementStudy study(config);

  std::printf("=== Figure 3: distribution of DNS responses (%%) ===\n");
  const auto& profiles = workload::figure3_profiles();
  for (std::size_t site = 0; site < profiles.size(); ++site) {
    const auto& profile = profiles[site];
    std::printf("\n--- %s (%s) ---\n", profile.website.c_str(),
                profile.cdn_domain.c_str());
    for (const auto& network_class : workload::network_classes()) {
      const auto cell = study.run_cell(site, network_class);
      std::printf("  %-16s:", network_class.c_str());
      for (const auto& pool : profile.pools) {
        const std::string label = pool.provider + " (" + pool.cidr + ")";
        std::printf("  %s %.0f%%", label.c_str(),
                    100.0 * cell.distribution.share(label));
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nexpected shape (paper): for a fixed domain, the pool mix differs "
      "across the three access networks\n");
  return 0;
}
