// MEC control-plane tests: the ingress overload machinery and the L-DNS
// failover health-checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dns/wire.h"
#include "mec/failover.h"
#include "mec/ingress.h"
#include "util/rng.h"

namespace mecdns::mec {
namespace {

using simnet::Ipv4Address;
using simnet::SimTime;

// --- ingress monitoring ---------------------------------------------------------

TEST(IngressMonitor, SlidingWindowRate) {
  IngressMonitor monitor(SimTime::seconds(1));
  for (int i = 0; i < 10; ++i) {
    monitor.record(SimTime::millis(100 * i));  // t=0..900ms
  }
  EXPECT_EQ(monitor.rate(SimTime::millis(900)), 10u);
  // At t=1.5s the window is [0.5s, 1.5s] inclusive: t=500..900ms -> 5.
  EXPECT_EQ(monitor.rate(SimTime::millis(1500)), 5u);
  EXPECT_EQ(monitor.rate(SimTime::seconds(10)), 0u);
}

TEST(IngressMonitor, EventExactlyAtTheCutoffIsKept) {
  IngressMonitor monitor(SimTime::seconds(1));
  monitor.record(SimTime::zero());
  monitor.record(SimTime::millis(500));
  EXPECT_EQ(monitor.rate(SimTime::seconds(1)), 2u);
  EXPECT_EQ(monitor.rate(SimTime::seconds(1) + SimTime::nanos(1)), 1u);
}

TEST(IngressMonitor, RebasesAcrossLongRuns) {
  // Arrivals 0.9 s apart never empty a 1 s window, so the base must move
  // every ~4.3 s of offsets; each count stays exact.
  IngressMonitor monitor(SimTime::seconds(1));
  for (int i = 0; i < 20; ++i) {
    const SimTime at = SimTime::millis(900.0 * i);
    monitor.record(at);
    EXPECT_EQ(monitor.rate(at), i == 0 ? 1u : 2u) << "i=" << i;
  }
  // An idle gap longer than 4.3 s empties the window; counting restarts
  // from the next arrival.
  monitor.record(SimTime::millis(30000));
  monitor.record(SimTime::millis(30500));
  EXPECT_EQ(monitor.rate(SimTime::millis(30500)), 2u);
  EXPECT_EQ(monitor.rate(SimTime::millis(31200)), 1u);

  // A near-2^32 ns window: an arrival 4.2 s after the base (a gap past
  // 2^32 ns) while the one before it is still kept.
  IngressMonitor wide(SimTime::millis(4200));
  wide.record(SimTime::zero());
  wide.record(SimTime::millis(4200));
  EXPECT_EQ(wide.rate(SimTime::millis(4200)), 2u);
  wide.record(SimTime::millis(4300));
  wide.record(SimTime::millis(8500));
  EXPECT_EQ(wide.rate(SimTime::millis(8500)), 2u);
  EXPECT_EQ(wide.rate(SimTime::millis(8500) + SimTime::nanos(1)), 1u);
}

TEST(IngressMonitor, ArrivalBeforeTheBaseIsCounted) {
  // A multi-worker server records arrivals slightly out of order.
  IngressMonitor monitor(SimTime::seconds(1));
  monitor.record(SimTime::seconds(1));
  monitor.record(SimTime::millis(999));
  EXPECT_EQ(monitor.rate(SimTime::seconds(1)), 2u);
  EXPECT_EQ(monitor.rate(SimTime::seconds(2.5)), 0u);
}

TEST(IngressMonitor, SteadyStreamMatchesABruteForceCount) {
  // 100k arrivals/s for 10 s of sim time, probed at random instants.
  util::Rng rng(9973);
  const auto draw = [&rng](std::uint64_t below) {
    return static_cast<std::int64_t>(rng.next() % below);
  };
  std::vector<SimTime> arrivals;
  for (std::int64_t k = 0; k < 1'000'000; ++k) {
    arrivals.push_back(SimTime::nanos(k * 10'000 + draw(10'000)));
  }
  std::vector<SimTime> probes;
  for (int i = 0; i < 50; ++i) {
    probes.push_back(SimTime::nanos(draw(10'000'000'000ULL)));
  }
  std::sort(probes.begin(), probes.end());

  IngressMonitor monitor(SimTime::seconds(1));
  std::size_t next = 0;
  for (const SimTime probe : probes) {
    while (next < arrivals.size() && arrivals[next] <= probe) {
      monitor.record(arrivals[next++]);
    }
    const SimTime cutoff = probe - SimTime::seconds(1);
    const auto seen = arrivals.begin() + static_cast<std::ptrdiff_t>(next);
    const auto want = static_cast<std::size_t>(std::count_if(
        arrivals.begin(), seen, [&](SimTime t) { return t >= cutoff; }));
    EXPECT_EQ(monitor.rate(probe), want) << "probe " << probe.to_string();
  }
}

TEST(IngressMonitor, WindowOfTwoToThe32NanosIsRejected) {
  EXPECT_THROW(IngressMonitor(SimTime::nanos(std::int64_t{1} << 32)),
               std::invalid_argument);
  EXPECT_NO_THROW(IngressMonitor(SimTime::nanos((std::int64_t{1} << 32) - 1)));
}

/// Offers one query, received at `at`, to the guard; true when the guard
/// admits it (passes it on down the chain).
bool admit_at(OverloadGuardPlugin& guard, SimTime at,
              dns::Plugin::Respond respond = [](dns::Message) {}) {
  const dns::Query query = dns::to_query(dns::make_query(
      1, dns::DnsName::must_parse("x.test"), dns::RecordType::kA));
  dns::QueryContext ctx;
  ctx.received = at;
  return !guard.serve(query, ctx, respond);
}

TEST(OverloadGuard, ShedsAboveThreshold) {
  IngressMonitor monitor(SimTime::seconds(1));
  OverloadGuardPlugin guard(monitor, 5, OverloadAction::kRefuse);

  int admitted = 0;
  int refused = 0;
  const auto count_refused = [&](dns::Message response) {
    if (response.header.rcode == dns::RCode::kRefused) ++refused;
  };
  for (int i = 0; i < 20; ++i) {
    // 100 qps, threshold 5.
    if (admit_at(guard, SimTime::millis(10 * i), count_refused)) ++admitted;
  }
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(refused, 15);
  EXPECT_EQ(guard.admitted(), 5u);
  EXPECT_EQ(guard.shed(), 15u);
}

TEST(OverloadGuard, RecoversWhenWindowSlides) {
  IngressMonitor monitor(SimTime::seconds(1));
  OverloadGuardPlugin guard(monitor, 2, OverloadAction::kRefuse);
  int admitted = 0;
  const auto admit = [&](SimTime at) {
    if (admit_at(guard, at)) ++admitted;
  };
  admit(SimTime::millis(0));
  admit(SimTime::millis(10));
  admit(SimTime::millis(20));  // shed
  EXPECT_EQ(admitted, 2);
  admit(SimTime::seconds(2));  // window slid: admitted again
  EXPECT_EQ(admitted, 3);
}

TEST(OverloadGuard, RecoveryHysteresisHoldsShedUntilQuiet) {
  IngressMonitor monitor(SimTime::seconds(1));
  OverloadGuardPlugin guard(monitor, 2, OverloadAction::kRefuse);
  guard.set_recovery_windows(2);  // stay shedding until 2s below threshold

  int admitted = 0;
  const auto query_at = [&](SimTime at) {
    if (admit_at(guard, at)) ++admitted;
  };

  query_at(SimTime::millis(0));
  query_at(SimTime::millis(10));
  query_at(SimTime::millis(20));  // rate hits the threshold: trip
  EXPECT_EQ(admitted, 2);
  EXPECT_TRUE(guard.shedding());
  EXPECT_EQ(guard.trips(), 1u);

  // The stateless guard would re-admit here (the window slid empty); the
  // hysteresis keeps shedding until the rate stays below for 2 windows.
  query_at(SimTime::millis(1500));
  EXPECT_EQ(admitted, 2);
  EXPECT_TRUE(guard.shedding());
  query_at(SimTime::millis(2500));  // only 1s of quiet: still shedding
  EXPECT_EQ(admitted, 2);

  query_at(SimTime::millis(3600));  // 2.1s of quiet: recover + admit
  EXPECT_EQ(admitted, 3);
  EXPECT_FALSE(guard.shedding());
  EXPECT_EQ(guard.recoveries(), 1u);
}

TEST(OverloadGuard, BurstDuringQuietPeriodRestartsTheClock) {
  IngressMonitor monitor(SimTime::seconds(1));
  OverloadGuardPlugin guard(monitor, 2, OverloadAction::kRefuse);
  guard.set_recovery_windows(1);

  const auto query_at = [&](SimTime at) { admit_at(guard, at); };

  query_at(SimTime::millis(0));
  query_at(SimTime::millis(10));
  query_at(SimTime::millis(20));  // trip
  ASSERT_TRUE(guard.shedding());
  query_at(SimTime::millis(1500));  // quiet clock starts
  // An over-threshold burst while quieting: shed storm, clock must reset.
  // (Shed queries are not recorded, so drive the rate with the monitor.)
  monitor.record(SimTime::millis(1600));
  monitor.record(SimTime::millis(1610));
  query_at(SimTime::millis(1620));  // over threshold again
  query_at(SimTime::millis(2700));  // 1.08s after reset... quiet restarted
  EXPECT_TRUE(guard.shedding());    // 2700-1620 ~ 1.08s quiet, but the
                                    // below_since restarted at 2700
  query_at(SimTime::millis(3800));  // now 1.1s of quiet: recovers
  EXPECT_FALSE(guard.shedding());
  EXPECT_EQ(guard.recoveries(), 1u);
}

// --- L-DNS liveness failover ----------------------------------------------

TEST(LdnsFailover, SwitchesToFallbackOnCrashAndBackOnRestart) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(5));
  const simnet::NodeId vantage =
      net.add_node("orchestrator", Ipv4Address::must_parse("10.7.0.1"));
  const simnet::NodeId primary_node =
      net.add_node("mec-ldns", Ipv4Address::must_parse("10.7.0.53"));
  net.add_link(vantage, primary_node,
               simnet::LatencyModel::constant(SimTime::millis(1)));
  // A minimal DNS responder: any query gets an (empty) NOERROR answer —
  // liveness probing cares that *something* answers, not what.
  simnet::UdpSocket* responder = nullptr;
  responder = net.open_socket(
      primary_node, dns::kDnsPort, [&](const simnet::Packet& p) {
        auto query = dns::decode(p.payload);
        ASSERT_TRUE(query.ok());
        responder->send(p.src, dns::encode(dns::make_response(
                                   dns::to_query(query.value()))));
      });

  LdnsFailover::Config config;
  config.primary = {Ipv4Address::must_parse("10.7.0.53"), dns::kDnsPort};
  config.fallback = {Ipv4Address::must_parse("10.201.0.53"), dns::kDnsPort};
  LdnsFailover failover(net.runtime(vantage), config);

  std::vector<std::pair<SimTime, bool>> switches_seen;
  failover.set_on_switch(
      [&](const simnet::Endpoint& target, bool to_fallback) {
        switches_seen.emplace_back(net.now(), to_fallback);
        EXPECT_EQ(target,
                  to_fallback ? config.fallback : config.primary);
      });
  failover.start(/*rounds=*/12);  // probes every 500ms until t=6s

  // Probes at 0.5s and 1.0s answer; crash just after, restart at 3.2s.
  sim.schedule_at(SimTime::millis(1200),
                  [&] { net.set_node_up(primary_node, false); });
  sim.schedule_at(SimTime::millis(3200),
                  [&] { net.set_node_up(primary_node, true); });
  sim.run();

  ASSERT_EQ(switches_seen.size(), 2u);
  EXPECT_TRUE(switches_seen[0].second);    // down after 2 missed probes
  EXPECT_FALSE(switches_seen[1].second);   // back after 2 answered probes
  EXPECT_LT(switches_seen[0].first, SimTime::millis(3200));
  EXPECT_GT(switches_seen[1].first, SimTime::millis(3200));
  EXPECT_FALSE(failover.on_fallback());
  EXPECT_EQ(failover.switches().size(), 2u);
  EXPECT_GE(failover.probe_failures(), 2u);
}

TEST(LdnsFailover, SingleMissedProbeDoesNotSwitch) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(5));
  const simnet::NodeId vantage =
      net.add_node("orchestrator", Ipv4Address::must_parse("10.7.0.1"));
  const simnet::NodeId primary_node =
      net.add_node("mec-ldns", Ipv4Address::must_parse("10.7.0.53"));
  net.add_link(vantage, primary_node,
               simnet::LatencyModel::constant(SimTime::millis(1)));
  simnet::UdpSocket* responder = nullptr;
  responder = net.open_socket(
      primary_node, dns::kDnsPort, [&](const simnet::Packet& p) {
        auto query = dns::decode(p.payload);
        ASSERT_TRUE(query.ok());
        responder->send(p.src, dns::encode(dns::make_response(
                                   dns::to_query(query.value()))));
      });

  LdnsFailover::Config config;
  config.primary = {Ipv4Address::must_parse("10.7.0.53"), dns::kDnsPort};
  config.fallback = {Ipv4Address::must_parse("10.201.0.53"), dns::kDnsPort};
  LdnsFailover failover(net.runtime(vantage), config);
  int switches = 0;
  failover.set_on_switch(
      [&](const simnet::Endpoint&, bool) { ++switches; });
  failover.start(/*rounds=*/8);

  // Down only across the 1.5s probe; back before the 2.0s probe.
  sim.schedule_at(SimTime::millis(1300),
                  [&] { net.set_node_up(primary_node, false); });
  sim.schedule_at(SimTime::millis(1700),
                  [&] { net.set_node_up(primary_node, true); });
  sim.run();

  EXPECT_EQ(switches, 0);
  EXPECT_FALSE(failover.on_fallback());
  EXPECT_EQ(failover.probe_failures(), 1u);
}

TEST(LdnsFailover, DestroyedFailoverLeavesNoTimerBehind) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(5));
  const simnet::NodeId vantage =
      net.add_node("orchestrator", Ipv4Address::must_parse("10.7.0.1"));
  const simnet::NodeId primary_node =
      net.add_node("mec-ldns", Ipv4Address::must_parse("10.7.0.53"));
  net.add_link(vantage, primary_node,
               simnet::LatencyModel::constant(SimTime::millis(1)));
  simnet::UdpSocket* responder = nullptr;
  responder = net.open_socket(
      primary_node, dns::kDnsPort, [&](const simnet::Packet& p) {
        auto query = dns::decode(p.payload);
        ASSERT_TRUE(query.ok());
        responder->send(p.src, dns::encode(dns::make_response(
                                   dns::to_query(query.value()))));
      });

  LdnsFailover::Config config;
  config.primary = {Ipv4Address::must_parse("10.7.0.53"), dns::kDnsPort};
  config.fallback = {Ipv4Address::must_parse("10.201.0.53"), dns::kDnsPort};
  auto failover = std::make_unique<LdnsFailover>(net.runtime(vantage), config);
  failover->start(/*rounds=*/12);
  // Probes at 0.5 s and 1.0 s are answered; the 1.5 s probe is armed.
  sim.run_until(SimTime::millis(1250));
  EXPECT_EQ(failover->probes_sent(), 2u);
  EXPECT_EQ(sim.pending(), 1u);
  failover.reset();
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(sim.now(), SimTime::millis(1250));
}

}  // namespace
}  // namespace mecdns::mec
