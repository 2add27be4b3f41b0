// Chaos layer tests: schedule builders, controller injection, and the
// determinism guard (an empty schedule must leave a run bit-identical).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/controller.h"
#include "chaos/fault_schedule.h"
#include "core/fig5.h"

namespace mecdns::chaos {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

TEST(FaultSchedule, OutageBuildersPairEvents) {
  FaultSchedule s;
  s.node_outage(SimTime::millis(100), SimTime::millis(300), 7)
      .link_outage(SimTime::millis(200), SimTime::millis(400), 3)
      .loss_burst(SimTime::millis(500), SimTime::millis(600), 3, 0.4);
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(kind_of(s.events()[0].action), "node_down");
  EXPECT_EQ(kind_of(s.events()[1].action), "node_up");
  EXPECT_EQ(s.events()[1].at, SimTime::millis(300));
  EXPECT_EQ(kind_of(s.events()[2].action), "link_down");
  EXPECT_EQ(kind_of(s.events()[3].action), "link_up");
  EXPECT_EQ(kind_of(s.events()[4].action), "link_loss");
  EXPECT_EQ(kind_of(s.events()[5].action), "link_loss");
  // A loss burst always ends by restoring lossless delivery.
  EXPECT_EQ(std::get<LinkLoss>(s.events()[5].action).probability, 0.0);
}

TEST(FaultSchedule, LinkFlapAlternatesAndEndsUp) {
  FaultSchedule s;
  s.link_flap(SimTime::millis(0), SimTime::millis(1000), SimTime::millis(250),
              3);
  // down@0, up@250, down@500, up@750, final up@1000.
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(kind_of(s.events()[0].action), "link_down");
  EXPECT_EQ(kind_of(s.events()[1].action), "link_up");
  EXPECT_EQ(kind_of(s.events()[2].action), "link_down");
  EXPECT_EQ(kind_of(s.events()[3].action), "link_up");
  EXPECT_EQ(kind_of(s.events().back().action), "link_up");
  EXPECT_EQ(s.events().back().at, SimTime::millis(1000));
}

TEST(FaultSchedule, DescribeNamesTheFault) {
  EXPECT_EQ(describe(FaultAction{NodeDown{7}}), "node_down node=7");
  EXPECT_EQ(describe(FaultAction{Custom{"wipe-cache", [] {}}}),
            "custom wipe-cache");
}

TEST(ChaosController, AppliesNodeOutageAtScheduledTimes) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(9));
  const simnet::NodeId client =
      net.add_node("client", Ipv4Address::must_parse("10.9.0.1"));
  const simnet::NodeId server =
      net.add_node("server", Ipv4Address::must_parse("10.9.0.2"));
  net.add_link(client, server, LatencyModel::constant(SimTime::millis(1)));
  int received = 0;
  net.open_socket(server, 9000,
                  [&](const simnet::Packet&) { ++received; });
  simnet::UdpSocket* out = net.open_socket(client, 9001, nullptr);

  ChaosController controller(net, "test-outage");
  FaultSchedule schedule;
  schedule.node_outage(SimTime::millis(100), SimTime::millis(300), server);
  controller.arm(schedule);

  const Endpoint dst{Ipv4Address::must_parse("10.9.0.2"), 9000};
  const std::vector<std::uint8_t> payload{1, 2, 3};
  for (const int at_ms : {50, 150, 350}) {
    sim.schedule_at(SimTime::millis(at_ms),
                    [&, dst] { out->send(dst, payload); });
  }
  sim.run();

  EXPECT_EQ(received, 2);  // the t=150ms packet hit the outage window
  ASSERT_EQ(controller.injected(), 2u);
  EXPECT_EQ(controller.injections()[0].kind, "node_down");
  EXPECT_EQ(controller.injections()[0].at, SimTime::millis(100));
  EXPECT_EQ(controller.injections()[1].kind, "node_up");
  EXPECT_EQ(controller.injections()[1].at, SimTime::millis(300));
}

TEST(ChaosController, CustomActionRunsAtItsInstant) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(9));
  net.add_node("only", Ipv4Address::must_parse("10.9.0.1"));

  ChaosController controller(net);
  SimTime fired = SimTime::zero();
  FaultSchedule schedule;
  schedule.custom(SimTime::millis(250), "brownout-on",
                  [&] { fired = net.now(); });
  controller.arm(schedule);
  sim.run();
  EXPECT_EQ(fired, SimTime::millis(250));
  ASSERT_EQ(controller.injected(), 1u);
  EXPECT_EQ(controller.injections()[0].description, "custom brownout-on");
}

TEST(ChaosController, InjectNowAppliesImmediately) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(9));
  net.add_node("only", Ipv4Address::must_parse("10.9.0.1"));
  ChaosController controller(net, "manual");
  bool applied = false;
  controller.inject_now(Custom{"kick", [&] { applied = true; }});
  EXPECT_TRUE(applied);
  EXPECT_EQ(controller.injected(), 1u);
}

TEST(ChaosController, EmptyScheduleArmsNothing) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(9));
  net.add_node("only", Ipv4Address::must_parse("10.9.0.1"));
  ChaosController controller(net);
  controller.arm(FaultSchedule{});
  EXPECT_EQ(sim.run(), 0u);  // no events were scheduled
  EXPECT_EQ(controller.injected(), 0u);
}

// The determinism guard: building the chaos layer and arming an *empty*
// schedule must leave a Fig. 5 run bit-identical to one that never touches
// the chaos layer — same sample count, same latencies to the last bit,
// same answers. This is the acceptance gate that lets the chaos code ship
// inside the measurement harness without perturbing the paper's figures.
TEST(ChaosDeterminism, EmptyScheduleIsBitIdenticalToNoChaosLayer) {
  const auto run = [](bool with_chaos_layer) {
    core::Fig5Testbed::Config config;
    config.deployment = core::Fig5Deployment::kMecLdnsMecCdns;
    core::Fig5Testbed testbed(config);
    std::unique_ptr<ChaosController> controller;
    if (with_chaos_layer) {
      controller = std::make_unique<ChaosController>(testbed.network(),
                                                     "empty");
      controller->arm(FaultSchedule{});
    }
    return testbed.measure(8, SimTime::millis(500));
  };

  const core::SeriesResult plain = run(false);
  const core::SeriesResult with_chaos = run(true);
  ASSERT_EQ(plain.samples.size(), with_chaos.samples.size());
  for (std::size_t i = 0; i < plain.samples.size(); ++i) {
    const core::QuerySample& a = plain.samples[i];
    const core::QuerySample& b = with_chaos.samples[i];
    EXPECT_EQ(a.ok, b.ok) << "sample " << i;
    EXPECT_EQ(a.address, b.address) << "sample " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.total_ms, b.total_ms) << "sample " << i;
    EXPECT_EQ(a.wireless_ms, b.wireless_ms) << "sample " << i;
    EXPECT_EQ(a.beyond_pgw_ms, b.beyond_pgw_ms) << "sample " << i;
  }
}

}  // namespace
}  // namespace mecdns::chaos
