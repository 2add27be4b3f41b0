// In-flight DNS transactions across a cellular handoff.
//
// The paper re-points the UE's resolver "as part of the cellular hand-off
// process" — for the *next* query. A query already in flight to the old
// cell's L-DNS is stranded the moment the air link flips: in an isolated
// deployment (no inter-site backhaul) its response has no path back, so a
// fragile client eats the full transport timeout. The robust stub moves
// pending transactions to the new L-DNS (DnsTransport::retarget_pending)
// and recovers in milliseconds. These tests pin both behaviours.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/topology.h"
#include "dns/stub.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mecdns {
namespace {

// Two full cells, each with its own MEC site and L-DNS, and — deliberately
// — NO backbone and NO inter-site backhaul: once the air link to cell A
// drops, nothing can carry a stranded response back to the UE. (With a
// backhaul, per-address re-routing would deliver it late and mask the
// fragile failure mode.)
struct IsolatedCells {
  simnet::Simulator sim;
  std::unique_ptr<simnet::Network> net;
  std::vector<core::topology::Cell> cells;
  core::topology::RoamingUe roaming;

  explicit IsolatedCells(bool retarget_in_flight, std::uint64_t seed = 7) {
    net = std::make_unique<simnet::Network>(sim, util::Rng(seed));
    cells.push_back(core::topology::add_cell(*net, 0, simnet::kInvalidNode));
    cells.push_back(core::topology::add_cell(*net, 1, simnet::kInvalidNode));
    for (auto& cell : cells) {
      cell.site->add_delivery_service("demo1", core::topology::demo_catalog());
    }
    roaming = core::topology::add_roaming_ue(*net, cells, "ue",
                                             core::topology::ue_address());
    roaming.ue->resolver().set_retarget_in_flight(retarget_in_flight);
  }
};

dns::StubResult query_across_handoff(IsolatedCells& world) {
  dns::StubResult observed;
  bool done = false;
  world.roaming.ue->resolver().resolve(
      core::topology::content_name(),
      dns::RecordType::kA, [&](const dns::StubResult& result) {
        observed = result;
        done = true;
      });
  // Hand off while the transaction is in flight: 1 ms in, the query is
  // somewhere between the eNB and cell A's L-DNS.
  world.sim.schedule_at(world.sim.now() + simnet::SimTime::millis(1),
                        [&world] { world.roaming.handoff->attach(1, true); });
  world.sim.run();
  EXPECT_TRUE(done);
  return observed;
}

TEST(HandoffInFlightTest, FragileClientEatsFullTimeoutAcrossHandoff) {
  IsolatedCells world(/*retarget_in_flight=*/false);
  const dns::StubResult result = query_across_handoff(world);
  // The response is stranded on the old site; with no retries and no
  // fallback, the client pays the entire transport timeout and fails.
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.latency.to_millis(), 2000.0);
  EXPECT_EQ(world.roaming.ue->resolver().transport().timeouts(), 1u);
  EXPECT_EQ(world.roaming.ue->resolver().transport().retargets(), 0u);
}

TEST(HandoffInFlightTest, RetargetInFlightRecoversOnNewCellQuickly) {
  IsolatedCells world(/*retarget_in_flight=*/true);
  const dns::StubResult result = query_across_handoff(world);
  // The pending transaction follows the re-target to cell B's L-DNS and
  // completes there — worst case one extra first-hop RTT, far below the
  // 2000 ms timeout the fragile client pays.
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_LT(result.latency.to_millis(), 100.0);
  EXPECT_EQ(world.roaming.ue->resolver().transport().retargets(), 1u);
  EXPECT_EQ(world.roaming.ue->resolver().transport().timeouts(), 0u);
  // The answer came from cell B's site, not a stale cell-A cache.
  ASSERT_TRUE(result.address.has_value());
  EXPECT_TRUE(world.cells[1].site->is_edge_cache(*result.address));
}

TEST(HandoffInFlightTest, QuietHandoffRetargetsNothing) {
  IsolatedCells world(/*retarget_in_flight=*/true);
  // No transaction in flight: the handoff just flips links and re-points
  // the stub; the retarget machinery must not fire.
  world.roaming.handoff->attach(1, true);
  world.sim.run();
  EXPECT_EQ(world.roaming.ue->resolver().transport().retargets(), 0u);

  // And the next query resolves on cell B at first-hop latency.
  dns::StubResult observed;
  world.roaming.ue->resolver().resolve(
      core::topology::content_name(),
      dns::RecordType::kA,
      [&observed](const dns::StubResult& result) { observed = result; });
  world.sim.run();
  EXPECT_TRUE(observed.ok) << observed.error;
  EXPECT_LT(observed.latency.to_millis(), 100.0);
}

// The handoff's other half: a move that does not re-point the resolver
// leaves the UE on the old cell's L-DNS. With a backhaul between the cells
// its lookups still resolve, but every one pays the detour and comes back
// with the old site's caches.
TEST(HandoffInFlightTest, StickyResolverDegradesAfterMove) {
  const auto after_move = [](bool retarget_dns) {
    IsolatedCells world(/*retarget_in_flight=*/false);
    world.net->add_link(world.cells[0].ran->pgw(), world.cells[1].ran->pgw(),
                        ran::wan_link(8.0));
    world.roaming.handoff->attach(1, retarget_dns);
    util::SampleSet latency_ms;
    int on_site_b = 0;
    for (int i = 0; i < 10; ++i) {
      world.roaming.ue->resolver().resolve(
          core::topology::content_name(),
          dns::RecordType::kA, [&](const dns::StubResult& result) {
            EXPECT_TRUE(result.ok) << result.error;
            if (!result.ok) return;
            latency_ms.add(result.latency.to_millis());
            on_site_b += world.cells[1].site->is_edge_cache(*result.address);
          });
      world.sim.run();
    }
    EXPECT_EQ(latency_ms.size(), 10u);
    return std::make_pair(latency_ms.mean(), on_site_b);
  };

  const auto [retarget_ms, retarget_on_b] = after_move(true);
  const auto [sticky_ms, sticky_on_b] = after_move(false);
  EXPECT_EQ(retarget_on_b, 10);
  EXPECT_EQ(sticky_on_b, 0);
  // Two 8 ms backhaul crossings per lookup.
  EXPECT_GT(sticky_ms, retarget_ms + 10.0);
}

}  // namespace
}  // namespace mecdns
