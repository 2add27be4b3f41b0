// Mobile handoff: a UE drives from cell A to cell B; the handoff re-targets
// its DNS to the new cell's MEC L-DNS (§3 P1), keeping resolution and
// content on the local site. Compare with the sticky case by running with
// MECDNS_STICKY=1 in the environment.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/topology.h"

using namespace mecdns;
namespace topology = core::topology;

int main() {
  const bool sticky = std::getenv("MECDNS_STICKY") != nullptr;
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(404));
  const simnet::NodeId backbone = topology::add_backbone(net);

  std::vector<topology::Cell> cells;
  cells.push_back(topology::add_cell(net, 0, backbone));
  cells.push_back(topology::add_cell(net, 1, backbone));
  net.add_link(cells[0].ran->pgw(), cells[1].ran->pgw(),
               ran::wan_link(8.0));  // inter-site backhaul
  for (auto& cell : cells) {
    cell.site->add_delivery_service("demo1", topology::demo_catalog());
  }

  // The car starts on cell A (cell 0) with its DNS on cell A's MEC L-DNS.
  topology::RoamingUe car =
      topology::add_roaming_ue(net, cells, "car-ue", topology::ue_address());
  ran::UserEquipment& ue = *car.ue;
  ran::HandoffManager& handoff = *car.handoff;

  std::printf("mode: %s (set MECDNS_STICKY=1 for the no-retarget case)\n\n",
              sticky ? "sticky L-DNS" : "re-target DNS on handoff");
  std::printf("%8s %-10s %12s %-22s\n", "t(s)", "cell", "latency(ms)",
              "served by");

  // Drive: 10 fetches, handoff at t=5s.
  for (int i = 0; i < 10; ++i) {
    const auto at = simnet::SimTime::seconds(1.0 * (i + 1));
    sim.schedule_at(at, [&, i, at] {
      if (i == 5) {
        handoff.attach(1, /*retarget_dns=*/!sticky);
        std::printf("%8.1f  --- handoff to cell-b%s ---\n",
                    at.to_seconds(),
                    sticky ? " (DNS still points at cell-a)" : "");
      }
      cdn::Url url;
      url.host = topology::content_name();
      url.path = "/segment000" + std::to_string(i % 8);
      ue.resolve_and_fetch(
          url, [&, at](const ran::UserEquipment::FetchOutcome& outcome) {
            const char* where = "?";
            if (cells[0].site->is_edge_cache(outcome.server)) {
              where = "cell-a edge cache";
            }
            if (cells[1].site->is_edge_cache(outcome.server)) {
              where = "cell-b edge cache";
            }
            std::printf("%8.1f %-10s %12.1f %-22s\n", at.to_seconds(),
                        handoff.active_cell() == 0 ? "cell-a" : "cell-b",
                        outcome.total.to_millis(), where);
          });
    });
  }
  sim.run();

  std::printf("\nreading: with re-targeting, latency stays flat and content "
              "is always local; sticky mode\npays the inter-site backhaul "
              "after the handoff and keeps hitting the old site's caches.\n");
  return 0;
}
