// Throughput runner: worker-count-independent byte-identical artifacts,
// sane load metrics, and (this binary links obs/alloc_hooks.cc) the
// counting-allocator path end to end, including what a server keeps of a
// hostile query.
#include "core/throughput.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dns/server.h"
#include "dns/wire.h"
#include "obs/perf.h"
#include "simnet/simulator.h"
#include "srv_flood.h"
#include "util/perfcount.h"

namespace mecdns {
namespace {

core::ThroughputConfig small_config() {
  core::ThroughputConfig config;
  config.deployments = {core::Fig5Deployment::kMecLdnsMecCdns,
                        core::Fig5Deployment::kProviderLdns};
  config.ues = 2000;
  config.rate_hz = 0.05;
  config.duration_s = 3.0;
  config.seed = 7;
  return config;
}

std::vector<core::ThroughputResult> results_of(
    const std::vector<core::JobOutcome<core::ThroughputOutput>>& outcomes) {
  std::vector<core::ThroughputResult> rows;
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    rows.push_back(outcome.value.result);
  }
  return rows;
}

TEST(Fig5SlugTest, RoundTripsEveryDeployment) {
  for (core::Fig5Deployment d : core::all_fig5_deployments()) {
    const std::string slug = core::fig5_slug(d);
    EXPECT_NE(slug, "unknown");
    core::Fig5Deployment parsed;
    ASSERT_TRUE(core::fig5_from_slug(slug, parsed)) << slug;
    EXPECT_EQ(parsed, d);
  }
  core::Fig5Deployment parsed;
  EXPECT_FALSE(core::fig5_from_slug("no-such-deployment", parsed));
}

TEST(ThroughputTest, AllocCountingIsActiveInThisBinary) {
  ASSERT_TRUE(obs::alloc_counting_active());
  const obs::PerfSnapshot before = obs::PerfSnapshot::take();
  // Direct operator-new call: unlike a new-expression, not elidable, so
  // the optimizer cannot fold away the allocation being counted.
  void* p = ::operator new(256);
  const auto delta = before.delta();
  ::operator delete(p);
  EXPECT_GE(delta.allocs, 1u);
  EXPECT_GE(delta.alloc_bytes, 256u);
}

/// Heap blocks this thread has allocated and not yet freed, as far as the
/// counting allocator has seen.
std::int64_t live_blocks() {
  const util::perf::Counters& c = util::perf::counters();
  return static_cast<std::int64_t>(c.allocs) -
         static_cast<std::int64_t>(c.frees);
}

TEST(ServerMemoryTest, FloodedQueryLeavesNoHeapBlockInTheServer) {
  // The server keeps a received query's header, question and EDNS, never
  // its records: once a plain query has followed the 60,261-octet flood of
  // 3000 SRV additionals, the heap holds what it held before the flood.
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(3));
  const auto server_addr = simnet::Ipv4Address::must_parse("10.0.0.2");
  const simnet::NodeId client =
      net.add_node("client", simnet::Ipv4Address::must_parse("10.0.0.1"));
  const simnet::NodeId server_node = net.add_node("server", server_addr);
  net.add_link(client, server_node,
               simnet::LatencyModel::constant(simnet::SimTime::millis(1)));
  dns::AuthoritativeServer server(
      net.runtime(server_node), "auth",
      simnet::LatencyModel::constant(simnet::SimTime::micros(100)));
  const auto video = dns::DnsName::must_parse("video.mycdn.test");
  dns::Zone& zone = server.add_zone(dns::DnsName::must_parse("mycdn.test"));
  zone.must_add(dns::make_a(video, server_addr, 30));
  int replies = 0;
  simnet::UdpSocket* socket = net.open_socket(
      client, 40000, [&replies](const simnet::Packet&) { ++replies; });
  const auto exchange = [&](std::span<const std::uint8_t> wire) {
    socket->send({server_addr, dns::kDnsPort}, wire);
    sim.run();
  };
  const std::vector<std::uint8_t> plain =
      dns::encode(dns::make_query(1, video, dns::RecordType::kA));
  const std::vector<std::uint8_t> flood = dns::srv_flood(dns::encode(
      dns::make_query(2, dns::srv_flood_name(), dns::RecordType::kA)));
  ASSERT_EQ(flood.size(), dns::kSrvFloodOctets);

  // A first exchange grows the server's slot pool, the event queue and the
  // network's payload pool to what one query at a time needs.
  exchange(plain);
  const std::int64_t before = live_blocks();
  exchange(flood);
  exchange(plain);
  EXPECT_EQ(live_blocks(), before);
  EXPECT_EQ(replies, 3);
  EXPECT_EQ(server.stats().queries, 3u);
  net.close_socket(socket);
}

TEST(ThroughputTest, LoadRunProducesSaneMetrics) {
  core::ThroughputConfig config = small_config();
  const auto outcomes = core::run_throughput(config);
  ASSERT_EQ(outcomes.size(), 2u);
  const auto rows = results_of(outcomes);

  EXPECT_EQ(rows[0].scenario, "mec-mec");
  EXPECT_EQ(rows[1].scenario, "provider");
  for (const auto& r : rows) {
    // 2000 UEs x 0.05 Hz x 3 s = ~300 queries; demand the right ballpark.
    EXPECT_GT(r.queries, 200u);
    EXPECT_LT(r.queries, 400u);
    EXPECT_EQ(r.failures, 0u);
    EXPECT_GT(r.qps_sim, 0.0);
    EXPECT_GT(r.events_per_query, 1.0);
    EXPECT_GT(r.dns_encoded_per_query, 0.0);
    EXPECT_GT(r.wire_bytes_per_query, 0.0);
    EXPECT_GT(r.p50_ms, 0.0);
    EXPECT_GE(r.p99_ms, r.p50_ms);
    EXPECT_GT(r.peak_queue_depth, 0u);
    EXPECT_TRUE(r.alloc_counted);
    EXPECT_GT(r.allocs_per_query, 1.0);
    EXPECT_GT(r.alloc_bytes_per_query, r.allocs_per_query);
    // Query path by reference (move-only inline callbacks, in-place
    // transaction records): ~3.2 allocs and ~500 B per query on mec-mec,
    // ~9.4 and ~1.7 KB on provider at this size. The ceilings leave about
    // 2x headroom over the provider row and trip long before a per-query
    // closure spill or a copied Message (904 B) sneaks back.
    EXPECT_LT(r.allocs_per_query, 20.0);
    EXPECT_LT(r.alloc_bytes_per_query, 3500.0);
  }
  // The paper's ordering: the MEC path answers faster than the provider
  // path, under load just as in the 32-query measurements.
  EXPECT_LT(rows[0].p50_ms, rows[1].p50_ms);
}

TEST(ThroughputTest, ArtifactsAreByteIdenticalAcrossWorkerCounts) {
  std::string json_1worker;
  std::vector<std::string> metrics_1worker;
  for (std::size_t workers : {1u, 2u, 8u}) {
    core::ThroughputConfig config = small_config();
    config.workers = workers;
    const auto outcomes = core::run_throughput(config);
    ASSERT_EQ(outcomes.size(), 2u);
    const std::string json = core::throughput_json(results_of(outcomes));
    std::vector<std::string> metrics;
    for (const auto& outcome : outcomes) {
      metrics.push_back(outcome.value.metrics.to_json());
    }
    if (workers == 1) {
      json_1worker = json;
      metrics_1worker = metrics;
      continue;
    }
    EXPECT_EQ(json, json_1worker) << "workers=" << workers;
    EXPECT_EQ(metrics, metrics_1worker) << "workers=" << workers;
  }
  // The deterministic artifact must never leak wall-clock numbers.
  EXPECT_EQ(json_1worker.find("wall"), std::string::npos);
  EXPECT_NE(json_1worker.find("\"allocs_per_query\""), std::string::npos);
}

TEST(ThroughputTest, WallJsonCarriesTheMachineDependentSide) {
  core::ThroughputConfig config = small_config();
  config.deployments = {core::Fig5Deployment::kMecLdnsMecCdns};
  config.ues = 500;
  const auto outcomes = core::run_throughput(config);
  const auto rows = results_of(outcomes);
  const std::string wall = core::throughput_wall_json(rows, 4);
  EXPECT_NE(wall.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(wall.find("\"qps_wall\""), std::string::npos);
  EXPECT_NE(wall.find("\"workers\": 4"), std::string::npos);
  EXPECT_GT(rows[0].wall_ms, 0.0);
}

TEST(ThroughputTest, ClosedLoopModeRuns) {
  core::ThroughputConfig config = small_config();
  config.deployments = {core::Fig5Deployment::kMecLdnsMecCdns};
  config.ues = 500;
  config.closed_loop = true;
  config.think_s = 0.5;
  const auto outcomes = core::run_throughput(config);
  const auto rows = results_of(outcomes);
  EXPECT_GT(rows[0].queries, 0u);
  EXPECT_EQ(rows[0].failures, 0u);
}

}  // namespace
}  // namespace mecdns
