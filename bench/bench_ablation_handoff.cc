// Ablation A4: DNS re-targeting on cellular handoff.
//
// §3 P1: switching the UE's target DNS to the new base station's MEC DNS
// "can be performed ... as part of the cellular hand-off process". This
// bench moves a UE from cell A to cell B and compares:
//   retarget — the handoff also re-points the stub at cell B's MEC L-DNS
//   sticky   — the stub keeps using cell A's L-DNS across the inter-site
//              backhaul (what happens without the paper's integration)
// measuring DNS latency and whether answers stay on the local site's caches.
#include <cstdio>
#include <memory>

#include "core/experiment.h"
#include "core/parallel.h"
#include "core/topology.h"
#include "util/args.h"

using namespace mecdns;

namespace {

struct TwoCellWorld {
  simnet::Simulator sim;
  std::unique_ptr<simnet::Network> net;
  std::vector<core::topology::Cell> cells;
  core::topology::RoamingUe ue;

  explicit TwoCellWorld(std::uint64_t seed) {
    net = std::make_unique<simnet::Network>(sim, util::Rng(seed));
    const simnet::NodeId backbone = core::topology::add_backbone(*net);
    cells.push_back(core::topology::add_cell(*net, 0, backbone));
    cells.push_back(core::topology::add_cell(*net, 1, backbone));
    // Inter-site backhaul (the sticky path rides this).
    net->add_link(cells[0].ran->pgw(), cells[1].ran->pgw(),
                  ran::wan_link(8.0));
    for (auto& cell : cells) {
      cell.site->add_delivery_service("demo1", core::topology::demo_catalog());
    }
    ue = core::topology::add_roaming_ue(*net, cells, "ue",
                                        core::topology::ue_address());
  }
};

struct Phase {
  double mean_ms;
  double local_share;  ///< answers on the *current* cell's caches
};

Phase measure(TwoCellWorld& world, core::MecCdnSite& local_site) {
  core::QueryRunner runner(*world.net, world.ue.ue->resolver(), nullptr);
  core::QueryRunner::Options options;
  options.queries = 30;
  options.warmup = 1;
  options.spacing = simnet::SimTime::millis(500);
  const core::SeriesResult result = runner.run(
      core::topology::content_name(), dns::RecordType::kA, options);
  Phase phase;
  phase.mean_ms = result.totals().mean();
  phase.local_share = result.answer_share(
      [&](simnet::Ipv4Address a) { return local_site.is_edge_cache(a); });
  return phase;
}

/// One campaign job: a private two-cell world running the before-handoff
/// phase and then the after-handoff phase with or without DNS re-targeting.
struct HandoffResult {
  Phase before;
  Phase after;
};

HandoffResult run_world(bool retarget, std::uint64_t seed) {
  TwoCellWorld world(seed);
  HandoffResult result;
  result.before = measure(world, *world.cells[0].site);
  world.ue.handoff->attach(1, retarget);
  result.after = measure(world, *world.cells[1].site);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_ablation_handoff: A4 DNS re-targeting on cellular handoff");
  args.add_int("seed", 11,
               "campaign seed; each world runs with "
               "split_mix64(seed ^ row_index)");
  args.add_int("workers", 0,
               "parallel campaign workers (0 = hardware concurrency, "
               "1 = serial); output is byte-identical for any value");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }
  const auto campaign_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const core::ParallelCampaign campaign(
      core::resolve_workers(args.get_int("workers")));
  const auto outcomes = campaign.run<HandoffResult>(
      2, [&](std::size_t index) {
        return run_world(index == 0, core::job_seed(campaign_seed, index));
      });
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) {
      std::fprintf(stderr, "error: world %zu failed: %s\n", i,
                   outcomes[i].error.c_str());
      return 1;
    }
  }

  std::printf("=== A4: DNS re-target on handoff vs sticky L-DNS ===\n");
  std::printf("%-40s %10s %14s\n", "phase", "mean(ms)", "local answers");
  const Phase& before = outcomes[0].value.before;
  std::printf("%-40s %10.1f %13.0f%%\n", "cell A, MEC L-DNS A",
              before.mean_ms, 100 * before.local_share);
  const Phase& retarget = outcomes[0].value.after;
  std::printf("%-40s %10.1f %13.0f%%\n",
              "cell B after handoff, re-targeted to B", retarget.mean_ms,
              100 * retarget.local_share);
  const Phase& sticky = outcomes[1].value.after;
  std::printf("%-40s %10.1f %13.0f%%\n",
              "cell B after handoff, sticky L-DNS A", sticky.mean_ms,
              100 * sticky.local_share);
  std::printf(
      "\nexpected shape: re-targeting keeps first-hop latency and 100%% "
      "local cache answers;\nthe sticky resolver pays the inter-site "
      "backhaul and is served by the old site's caches\n");
  return 0;
}
