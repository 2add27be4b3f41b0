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

#include "cdn/content.h"
#include "core/mec_cdn.h"
#include "dns/stub.h"
#include "ran/handoff.h"
#include "ran/profiles.h"
#include "ran/segment.h"
#include "ran/ue.h"
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
  std::unique_ptr<ran::RanSegment> cell_a;
  std::unique_ptr<ran::RanSegment> cell_b;
  std::unique_ptr<core::MecCdnSite> site_a;
  std::unique_ptr<core::MecCdnSite> site_b;
  std::unique_ptr<ran::UserEquipment> ue;
  std::unique_ptr<ran::HandoffManager> handoff;

  explicit IsolatedCells(bool retarget_in_flight, std::uint64_t seed = 7) {
    net = std::make_unique<simnet::Network>(sim, util::Rng(seed));
    const auto make_cell = [&](const std::string& name,
                               const std::string& pgw_ip,
                               const std::string& prefix) {
      ran::RanSegment::Config rc;
      rc.name = name;
      rc.enb_addr = simnet::Ipv4Address::must_parse(prefix + ".0.1");
      rc.sgw_addr = simnet::Ipv4Address::must_parse(prefix + ".0.2");
      rc.pgw_addr = simnet::Ipv4Address::must_parse(pgw_ip);
      rc.ue_subnet = simnet::Cidr::must_parse("10.45.0.0/16");
      rc.access = ran::lte();
      auto segment = std::make_unique<ran::RanSegment>(*net, rc);

      core::MecCdnSite::Config sc;
      sc.orchestrator.cluster.name = name + "-mec";
      sc.orchestrator.cluster.node_cidr =
          simnet::Cidr::must_parse(prefix + ".64.0/24");
      sc.orchestrator.cluster.service_cidr =
          simnet::Cidr::must_parse(prefix + ".128.0/20");
      sc.answer_ttl = 0;
      auto site = std::make_unique<core::MecCdnSite>(*net, sc);
      net->add_link(segment->pgw(), site->orchestrator().cluster().gateway(),
                    simnet::LatencyModel::constant(
                        simnet::SimTime::millis(0.5)));
      return std::make_pair(std::move(segment), std::move(site));
    };
    std::tie(cell_a, site_a) = make_cell("cell-a", "203.0.113.1", "10.101");
    std::tie(cell_b, site_b) = make_cell("cell-b", "203.0.114.1", "10.102");

    cdn::ContentCatalog catalog;
    catalog.add_series(
        dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"), "seg", 4,
        64 * 1024);
    site_a->add_delivery_service("demo1", catalog);
    site_b->add_delivery_service("demo1", catalog);

    ue = std::make_unique<ran::UserEquipment>(
        *net, *cell_a, "ue", simnet::Ipv4Address::must_parse("10.45.0.2"),
        site_a->ldns_endpoint());
    ue->resolver().set_retarget_in_flight(retarget_in_flight);
    const simnet::LinkId link_b = net->add_link(
        ue->node(), cell_b->enb(), ran::lte().uplink, ran::lte().downlink);
    net->set_link_up(link_b, false);

    handoff = std::make_unique<ran::HandoffManager>(*net, *ue);
    handoff->add_cell(ran::HandoffManager::Cell{
        "cell-a", cell_a.get(), cell_a->ue_link(ue->node()),
        site_a->ldns_endpoint()});
    handoff->add_cell(ran::HandoffManager::Cell{
        "cell-b", cell_b.get(), link_b, site_b->ldns_endpoint()});
    handoff->attach(0);
  }
};

dns::StubResult query_across_handoff(IsolatedCells& world) {
  dns::StubResult observed;
  bool done = false;
  world.ue->resolver().resolve(
      dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
      dns::RecordType::kA, [&](const dns::StubResult& result) {
        observed = result;
        done = true;
      });
  // Hand off while the transaction is in flight: 1 ms in, the query is
  // somewhere between the eNB and cell A's L-DNS.
  world.sim.schedule_at(world.sim.now() + simnet::SimTime::millis(1),
                        [&world] { world.handoff->attach(1, true); });
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
  EXPECT_EQ(world.ue->resolver().transport().timeouts(), 1u);
  EXPECT_EQ(world.ue->resolver().transport().retargets(), 0u);
}

TEST(HandoffInFlightTest, RetargetInFlightRecoversOnNewCellQuickly) {
  IsolatedCells world(/*retarget_in_flight=*/true);
  const dns::StubResult result = query_across_handoff(world);
  // The pending transaction follows the re-target to cell B's L-DNS and
  // completes there — worst case one extra first-hop RTT, far below the
  // 2000 ms timeout the fragile client pays.
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_LT(result.latency.to_millis(), 100.0);
  EXPECT_EQ(world.ue->resolver().transport().retargets(), 1u);
  EXPECT_EQ(world.ue->resolver().transport().timeouts(), 0u);
  // The answer came from cell B's site, not a stale cell-A cache.
  ASSERT_TRUE(result.address.has_value());
  bool on_site_b = false;
  for (std::size_t i = 0; i < world.site_b->site_config().edge_caches; ++i) {
    on_site_b = on_site_b || world.site_b->cache_address(i) == *result.address;
  }
  EXPECT_TRUE(on_site_b);
}

TEST(HandoffInFlightTest, QuietHandoffRetargetsNothing) {
  IsolatedCells world(/*retarget_in_flight=*/true);
  // No transaction in flight: the handoff just flips links and re-points
  // the stub; the retarget machinery must not fire.
  world.handoff->attach(1, true);
  world.sim.run();
  EXPECT_EQ(world.ue->resolver().transport().retargets(), 0u);

  // And the next query resolves on cell B at first-hop latency.
  dns::StubResult observed;
  world.ue->resolver().resolve(
      dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
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
    world.net->add_link(world.cell_a->pgw(), world.cell_b->pgw(),
                        ran::wan_link(8.0));
    world.handoff->attach(1, retarget_dns);
    util::SampleSet latency_ms;
    int on_site_b = 0;
    for (int i = 0; i < 10; ++i) {
      world.ue->resolver().resolve(
          dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
          dns::RecordType::kA, [&](const dns::StubResult& result) {
            EXPECT_TRUE(result.ok) << result.error;
            if (!result.ok) return;
            latency_ms.add(result.latency.to_millis());
            for (std::size_t c = 0; c < world.site_b->site_config().edge_caches;
                 ++c) {
              on_site_b += world.site_b->cache_address(c) == *result.address;
            }
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
