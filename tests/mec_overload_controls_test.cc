// Overload-safe degradation controls: queue-probe admission in the ingress
// guard, the SERVFAIL shed policy, the AutoScaler control loop, and the
// site's elastic replica pool with its mec.ingress.* metric export.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mec_cdn.h"
#include "dns/message.h"
#include "dns/plugin.h"
#include "mec/autoscaler.h"
#include "mec/ingress.h"
#include "obs/metrics.h"
#include "simnet/simulator.h"
#include "util/rng.h"

namespace mecdns {
namespace {

using mec::AutoScaler;
using mec::IngressMonitor;
using mec::OverloadAction;
using mec::OverloadGuardPlugin;
using simnet::SimTime;

const dns::Query kQuery = dns::to_query(dns::make_query(
    1, dns::DnsName::must_parse("x.test"), dns::RecordType::kA));

dns::QueryContext received_at(SimTime at) {
  dns::QueryContext ctx;
  ctx.received = at;
  return ctx;
}

TEST(OverloadControls, QueueProbeShedsWhenBacklogReachesLimit) {
  IngressMonitor monitor(SimTime::seconds(1));
  // Rate threshold far away: only the queue probe can shed here.
  OverloadGuardPlugin guard(monitor, 1000, OverloadAction::kServFail);
  std::size_t depth = 0;
  guard.set_queue_probe([&depth] { return depth; }, 4);

  int admitted = 0;
  int servfails = 0;
  const auto serve = [&](SimTime at) {
    dns::Plugin::Respond respond = [&](dns::Message response) {
      if (response.header.rcode == dns::RCode::kServFail) ++servfails;
    };
    if (!guard.serve(kQuery, received_at(at), respond)) ++admitted;
  };
  serve(SimTime::millis(0));  // depth 0 -> admitted
  depth = 3;
  serve(SimTime::millis(100));  // below limit -> admitted
  depth = 4;
  serve(SimTime::millis(200));  // at limit -> shed, deterministic SERVFAIL
  depth = 9;
  serve(SimTime::millis(300));  // above limit -> shed
  depth = 1;
  serve(SimTime::millis(400));  // backlog drained -> admitted again

  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(servfails, 2);
  EXPECT_EQ(guard.shed_queue_full(), 2u);
  EXPECT_EQ(guard.shed(), 2u);
  // Queue sheds must not poison the rate window: only admitted queries
  // count toward the ingress rate.
  EXPECT_EQ(guard.admitted(), 3u);
}

TEST(OverloadControls, ServFailShedAnswersImmediately) {
  IngressMonitor monitor(SimTime::seconds(1));
  OverloadGuardPlugin guard(monitor, 1, OverloadAction::kServFail);
  int responses = 0;
  dns::RCode last = dns::RCode::kNoError;
  for (int i = 0; i < 3; ++i) {
    dns::Plugin::Respond respond = [&](dns::Message response) {
      ++responses;
      last = response.header.rcode;
    };
    guard.serve(kQuery, received_at(SimTime::millis(i)), respond);
  }
  // Every shed produces an answer — the fast failover signal
  // DnsTransport's SERVFAIL failover consumes.
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(last, dns::RCode::kServFail);
}

TEST(OverloadControls, AutoScalerFollowsWatermarksWithCooldown) {
  simnet::Simulator sim;
  std::uint64_t load = 0;
  std::size_t replicas = 1;
  AutoScaler::Config config;
  config.interval = SimTime::seconds(1);
  config.scale_up_per_replica = 100.0;
  config.scale_down_per_replica = 20.0;
  config.min_replicas = 1;
  config.max_replicas = 3;
  config.cooldown_intervals = 2;
  AutoScaler scaler(
      sim, config, [&load] { return load; }, [&replicas] { return replicas; },
      [&replicas] {
        ++replicas;
        return true;
      },
      [&replicas] {
        --replicas;
        return true;
      });
  scaler.run_for(10);

  // The probe is a *cumulative* counter (like RouterStats::routed); the
  // scaler works off per-interval deltas. Keep the site hot through t=4s.
  for (int half_s = 1; half_s < 8; half_s += 2) {
    sim.schedule_at(SimTime::millis(500 * half_s), [&load] { load += 600; });
  }
  sim.run_until(SimTime::millis(1100));
  EXPECT_EQ(replicas, 2u);  // interval 1: 600 on 1 replica -> scale up
  EXPECT_EQ(scaler.scale_ups(), 1u);

  // Still hot during the cooldown: no second action until it expires.
  sim.run_until(SimTime::millis(2100));
  EXPECT_EQ(replicas, 2u);  // cooldown holds
  sim.run_until(SimTime::millis(4100));
  EXPECT_EQ(replicas, 3u);  // cooldown expired, still over watermark
  EXPECT_EQ(scaler.scale_ups(), 2u);

  // Load vanishes: scale back down to the floor, one step per cooldown.
  sim.run();
  EXPECT_EQ(replicas, config.min_replicas);
  EXPECT_GE(scaler.scale_downs(), 2u);
  EXPECT_EQ(scaler.ticks(), 10u);
}

TEST(OverloadControls, AutoScalerRespectsReplicaCeiling) {
  simnet::Simulator sim;
  std::uint64_t load = 0;
  std::size_t replicas = 1;
  AutoScaler::Config config;
  config.interval = SimTime::seconds(1);
  config.scale_up_per_replica = 10.0;
  config.scale_down_per_replica = 0.0;
  config.max_replicas = 2;
  config.cooldown_intervals = 0;
  AutoScaler scaler(
      sim, config, [&load] { return load += 1000; },
      [&replicas] { return replicas; },
      [&replicas] {
        ++replicas;
        return true;
      },
      [] { return false; });
  scaler.run_for(8);
  sim.run();
  EXPECT_EQ(replicas, 2u);  // forever hot, but never past the ceiling
  EXPECT_EQ(scaler.scale_ups(), 1u);
}

TEST(OverloadControls, DestroyedAutoScalerLeavesNoTimerBehind) {
  simnet::Simulator sim;
  std::uint64_t load = 0;
  std::size_t replicas = 1;
  AutoScaler::Config config;
  config.interval = SimTime::seconds(1);
  auto scaler = std::make_unique<AutoScaler>(
      sim, config, [&load] { return load; }, [&replicas] { return replicas; },
      [] { return false; }, [] { return false; });
  scaler->run_for(10);
  // Ticks at 1 s and 2 s have run; the 3 s tick is armed.
  sim.run_until(SimTime::millis(2500));
  EXPECT_EQ(scaler->ticks(), 2u);
  EXPECT_EQ(sim.pending(), 1u);
  scaler.reset();
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(sim.now(), SimTime::millis(2500));
}

TEST(OverloadControls, SiteElasticityAddsRetiresAndReactivatesReplicas) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(5));
  core::MecCdnSite::Config config;
  config.overload_threshold_qps = 50;
  config.overload_action = OverloadAction::kServFail;
  config.overload_queue_limit = 8;
  core::MecCdnSite site(net, config);
  const std::size_t base = site.active_edge_caches();
  EXPECT_EQ(base, core::MecCdnSite::kEdgeCaches);

  cdn::CacheServer* extra = site.add_edge_cache();
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(site.active_edge_caches(), base + 1);
  EXPECT_TRUE(site.retire_edge_cache());
  EXPECT_EQ(site.active_edge_caches(), base);
  // Reactivation reuses the retired server instead of burning addresses.
  EXPECT_EQ(site.add_edge_cache(), extra);
  for (std::size_t i = site.active_edge_caches(); i > 1; --i) {
    EXPECT_TRUE(site.retire_edge_cache());
  }
  EXPECT_FALSE(site.retire_edge_cache()) << "must keep the last replica";

  // The ingress state machine and the replica gauge are exported for the
  // report tooling: mec.ingress.* plus the elastic replica count.
  obs::Registry registry;
  site.export_metrics(registry, "site.");
  EXPECT_EQ(registry.counter_value("site.mec.ingress.admitted"), 0u);
  EXPECT_EQ(registry.counter_value("site.mec.ingress.shed"), 0u);
  EXPECT_EQ(registry.counter_value("site.mec.ingress.shed_queue_full"), 0u);
  EXPECT_EQ(registry.counter_value("site.mec.ingress.trips"), 0u);
  EXPECT_EQ(registry.gauge_value("site.mec.ingress.shedding"), 0.0);
  EXPECT_EQ(registry.gauge_value("site.mec.edge_replicas"), 1.0);
}

}  // namespace
}  // namespace mecdns
