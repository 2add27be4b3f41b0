// Clock/IO abstraction tests: the epoll runtime's timers and real UDP
// sockets, and the same DNS and CDN components running unchanged over
// either runtime.
//
// The loopback round-trip here is the in-tree half of the live-wire story:
// an AuthoritativeServer bound to a real 127.0.0.1 port answers a
// StubResolver whose retransmission timers are wall-clock epoll timers.
// tools/check.sh's livewire-smoke stage drives the same path through the
// mecdns_livewire binary from outside the process.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cdn/cache_server.h"
#include "cdn/traffic_router.h"
#include "dns/plugin.h"
#include "dns/server.h"
#include "dns/stub.h"
#include "dns/transport.h"
#include "netio/epoll_runtime.h"

namespace mecdns::netio {
namespace {

using dns::DnsName;
using dns::RecordType;
using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

TEST(EpollRuntimeTest, TimersFireInDeadlineOrder) {
  EpollRuntime rt;
  std::vector<int> fired;
  rt.schedule_after(SimTime::millis(30), [&] { fired.push_back(30); });
  rt.schedule_after(SimTime::millis(10), [&] { fired.push_back(10); });
  rt.schedule_after(SimTime::millis(20), [&] {
    fired.push_back(20);
    rt.stop();
  });
  rt.run();
  // 30 ms had not elapsed when stop() was called from the 20 ms timer...
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  rt.run_until(rt.now() + SimTime::millis(100));
  // ...and a second run() picks it up: timers survive across runs.
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(rt.timers_fired(), 3u);
}

TEST(EpollRuntimeTest, EqualDeadlinesFireInScheduleOrder) {
  // The simulator breaks deadline ties by schedule sequence; the wall-clock
  // heap must match so ported code sees the same callback order.
  EpollRuntime rt;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    rt.schedule_after(SimTime::millis(5), [&fired, i] { fired.push_back(i); });
  }
  rt.run_until(rt.now() + SimTime::millis(50));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/// Drives a runtime for a while: the simulator's per-node adapter, or a
/// live epoll loop. The cancellation contract below must hold for both.
struct SimHarness {
  simnet::Simulator sim;
  simnet::Network net{sim, util::Rng(7)};
  simnet::NodeId node = net.add_node("n", Ipv4Address::must_parse("10.0.0.1"));
  Runtime& runtime() { return net.runtime(node); }
  void run_for(SimTime span) { sim.run_until(sim.now() + span); }
};

struct EpollHarness {
  EpollRuntime rt;
  Runtime& runtime() { return rt; }
  void run_for(SimTime span) { rt.run_until(rt.now() + span); }
};

template <typename Harness>
class RuntimeCancelTest : public ::testing::Test {
 protected:
  Harness harness_;
};
using Harnesses = ::testing::Types<SimHarness, EpollHarness>;
TYPED_TEST_SUITE(RuntimeCancelTest, Harnesses);

TYPED_TEST(RuntimeCancelTest, CancelledTimerNeverFires) {
  Runtime& rt = this->harness_.runtime();
  std::vector<std::string> fired;
  const auto mark = [&fired](const char* name) {
    return [&fired, name] { fired.push_back(name); };
  };

  // A cancelled timer never runs; cancelling it again, or cancelling
  // kNoTimer, is a no-op.
  const TimerId doomed = rt.schedule_after(SimTime::millis(10), mark("doomed"));
  rt.cancel(doomed);
  rt.cancel(doomed);
  rt.cancel(kNoTimer);
  // The next timer reuses the cancelled timer's slot: the stale id must
  // not reach it.
  const TimerId reuser = rt.schedule_after(SimTime::millis(10), mark("reuser"));
  EXPECT_NE(reuser, doomed);
  rt.cancel(doomed);

  // A cancel issued from a callback at the same deadline takes effect.
  TimerId victim = kNoTimer;
  rt.schedule_after(SimTime::millis(20), [&] {
    fired.push_back("canceller");
    rt.cancel(victim);
  });
  victim = rt.schedule_after(SimTime::millis(20), mark("victim"));

  // Equal deadlines fire in schedule order around cancelled timers.
  std::vector<TimerId> batch;
  for (const char* name : {"b0", "b1", "b2", "b3", "b4"}) {
    batch.push_back(rt.schedule_after(SimTime::millis(30), mark(name)));
  }
  rt.cancel(batch[1]);
  rt.cancel(batch[3]);
  this->harness_.run_for(SimTime::millis(80));
  EXPECT_EQ(fired, (std::vector<std::string>{"reuser", "canceller", "b0",
                                              "b2", "b4"}));

  // Cancelling a timer that already fired is a no-op, also once a later
  // timer has taken over its slot.
  rt.cancel(reuser);
  rt.schedule_after(SimTime::millis(10), mark("after"));
  rt.cancel(reuser);
  rt.cancel(batch[0]);
  this->harness_.run_for(SimTime::millis(60));
  EXPECT_EQ(fired.back(), "after");
  EXPECT_EQ(fired.size(), 6u);

  if constexpr (std::is_same_v<TypeParam, EpollHarness>) {
    // Only cancels that stopped an armed timer count.
    EXPECT_EQ(this->harness_.rt.timers_cancelled(), 4u);
    EXPECT_EQ(this->harness_.rt.timers_fired(), 6u);
  } else {
    EXPECT_EQ(this->harness_.sim.pending(), 0u);
  }
}

/// Counts its moves: building a Callback from it is one, and the runtime
/// may add at most one more, into its queue slot.
struct MoveProbe {
  int* moves;
  int* calls;
  MoveProbe(int* m, int* c) : moves(m), calls(c) {}
  MoveProbe(MoveProbe&& other) noexcept : moves(other.moves), calls(other.calls) {
    ++*moves;
  }
  MoveProbe& operator=(MoveProbe&&) = delete;
  void operator()() { ++*calls; }
};

TYPED_TEST(RuntimeCancelTest, ScheduleAfterRelocatesTheCallbackAtMostOnce) {
  Runtime& rt = this->harness_.runtime();
  int moves = 0, calls = 0;
  rt.schedule_after(SimTime::millis(1), MoveProbe(&moves, &calls));
  EXPECT_LE(moves, 2);  // into the Callback, then at most into the slot
  const int scheduled = moves;
  this->harness_.run_for(SimTime::millis(20));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(moves, scheduled);  // fired in place
}

TYPED_TEST(RuntimeCancelTest, FiringTimerSchedulesAndCancelsOthers) {
  Runtime& rt = this->harness_.runtime();
  std::vector<int> fired;
  std::array<std::uint8_t, 160> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i ^ 0x5a);
  }
  const auto expected = bytes;
  bool intact = false;
  const TimerId doomed =
      rt.schedule_after(SimTime::millis(10), [&] { fired.push_back(-1); });
  TimerId self = kNoTimer;
  self = rt.schedule_after(SimTime::millis(2), [&, bytes] {
    rt.cancel(self);  // the running timer: a no-op
    rt.cancel(doomed);
    // Enough timers to grow the slot storage under the running callback;
    // every odd one is cancelled before it can fire.
    std::vector<TimerId> spawned;
    for (int i = 0; i < 200; ++i) {
      spawned.push_back(rt.schedule_after(SimTime::millis(3),
                                          [&fired, i] { fired.push_back(i); }));
    }
    for (int i = 1; i < 200; i += 2) rt.cancel(spawned[i]);
    intact = bytes == expected;
  });
  this->harness_.run_for(SimTime::millis(40));
  EXPECT_TRUE(intact);
  std::vector<int> even;
  for (int i = 0; i < 200; i += 2) even.push_back(i);
  EXPECT_EQ(fired, even);
  if constexpr (std::is_same_v<TypeParam, EpollHarness>) {
    EXPECT_EQ(this->harness_.rt.timers_fired(), 101u);
    EXPECT_EQ(this->harness_.rt.timers_cancelled(), 101u);
  } else {
    EXPECT_EQ(this->harness_.sim.pending(), 0u);
  }
}

TEST(EpollRuntimeTest, NowTracksWallClock) {
  EpollRuntime rt;
  const SimTime start = rt.now();
  const auto wall_start = std::chrono::steady_clock::now();
  rt.run_until(start + SimTime::millis(40));
  const auto wall_elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - wall_start);
  EXPECT_GE(rt.now() - start, SimTime::millis(40));
  EXPECT_GE(wall_elapsed.count(), 35);  // really slept, didn't spin the clock
}

TEST(EpollRuntimeTest, LoopbackDatagramRoundTrip) {
  EpollRuntime rt;
  // Echo server on an ephemeral loopback port.
  DatagramSocket* echo = nullptr;
  echo = rt.open_socket(0, [&](const simnet::Packet& p) {
    std::vector<std::uint8_t> reply(p.payload.rbegin(), p.payload.rend());
    echo->send(p.src, reply);
  });
  ASSERT_NE(echo, nullptr);
  EXPECT_NE(echo->endpoint().port, 0);  // ephemeral bind resolved

  std::vector<std::uint8_t> got;
  DatagramSocket* client = rt.open_socket(0, [&](const simnet::Packet& p) {
    got = p.payload;
    rt.stop();
  });
  const std::vector<std::uint8_t> ping = {1, 2, 3, 4};
  client->send(echo->endpoint(), ping);
  rt.run_until(rt.now() + SimTime::millis(2000));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{4, 3, 2, 1}));
  EXPECT_EQ(rt.packets_sent(), 2u);
  EXPECT_EQ(rt.packets_received(), 2u);

  rt.close_socket(client);
  rt.close_socket(echo);
  EXPECT_EQ(rt.open_sockets(), 0u);
}

TEST(EpollRuntimeTest, BurstSentBeforeTheLoopPollsIsAllDelivered) {
  // A loop that stalls must not lose what queued meanwhile: every socket
  // asks for a 4 MiB receive buffer, which the kernel caps at rmem_max.
  std::ifstream rmem_max("/proc/sys/net/core/rmem_max");
  std::int64_t cap = 0;
  if (!(rmem_max >> cap) || cap < (4 << 20)) {
    GTEST_SKIP() << "net.core.rmem_max is " << cap << " B, below 4 MiB";
  }
  EpollRuntime rt;
  constexpr int kBurst = 2000;
  int received = 0;
  DatagramSocket* sink = rt.open_socket(0, [&](const simnet::Packet&) {
    if (++received == kBurst) rt.stop();
  });
  DatagramSocket* source = rt.open_socket(0, nullptr);
  const std::vector<std::uint8_t> query_sized(48, 0xab);
  for (int i = 0; i < kBurst; ++i) source->send(sink->endpoint(), query_sized);
  rt.run_until(rt.now() + SimTime::millis(2000));
  EXPECT_EQ(rt.send_errors(), 0u);
  EXPECT_EQ(received, kBurst);
}

/// The live-wire acceptance path in miniature: a real DNS query over a real
/// UDP socket on 127.0.0.1, answered by the authoritative server, with all
/// components destroyed cleanly (no leaked fds) afterwards.
TEST(EpollRuntimeTest, DnsQueryRoundTripsOverLoopback) {
  EpollRuntime rt;
  {
    dns::AuthoritativeServer server(rt, "edge-auth",
                                    LatencyModel::constant(SimTime::zero()),
                                    /*port=*/0);
    dns::Zone& zone = server.add_zone(DnsName::must_parse("mec.test"));
    zone.must_add(dns::make_a(DnsName::must_parse("video.mec.test"),
                              Ipv4Address::must_parse("192.0.2.7"), 60));
    ASSERT_NE(server.endpoint().port, 0);

    dns::StubResolver stub(rt, server.endpoint());
    dns::StubResult result;
    bool done = false;
    stub.resolve(DnsName::must_parse("video.mec.test"), RecordType::kA,
                 [&](const dns::StubResult& r) {
                   result = r;
                   done = true;
                   rt.stop();
                 });
    rt.run_until(rt.now() + SimTime::millis(5000));
    ASSERT_TRUE(done) << "no answer within 5 s on loopback";
    EXPECT_TRUE(result.ok);
    ASSERT_TRUE(result.address.has_value());
    EXPECT_EQ(*result.address, Ipv4Address::must_parse("192.0.2.7"));
    EXPECT_EQ(server.stats().queries, 1u);
    EXPECT_EQ(server.stats().responses, 1u);
  }
  // Server and stub destroyed: every socket they opened must be gone.
  EXPECT_EQ(rt.open_sockets(), 0u);
}

TEST(EpollRuntimeTest, WallClockRetransmissionTimeoutFires) {
  // A bound-but-silent socket stands in for a dead server: the transport's
  // retry ladder must run on real wall-clock timers and deliver the error.
  EpollRuntime rt;
  DatagramSocket* silent = rt.open_socket(0, [](const simnet::Packet&) {});

  dns::DnsTransport transport(rt);
  auto options = std::make_shared<dns::DnsTransport::Options>();
  options->timeout = SimTime::millis(40);
  options->max_retries = 1;
  bool done = false;
  const SimTime start = rt.now();
  SimTime elapsed = SimTime::zero();
  transport.query(silent->endpoint(),
                  dns::make_query(0, DnsName::must_parse("x.test"),
                                  RecordType::kA),
                  options, [&](util::Result<dns::Message> result, SimTime) {
                    done = true;
                    elapsed = rt.now() - start;
                    EXPECT_FALSE(result.ok());
                    rt.stop();
                  });
  rt.run_until(rt.now() + SimTime::millis(5000));
  ASSERT_TRUE(done) << "timeout never fired";
  // Initial attempt + one retry at 40 ms each: the error lands no earlier
  // than 80 ms of real elapsed time.
  EXPECT_GE(elapsed, SimTime::millis(80));
  EXPECT_EQ(transport.timeouts(), 1u);
  EXPECT_EQ(transport.retransmissions(), 1u);
  EXPECT_EQ(rt.timers_fired(), 2u);

  rt.close_socket(silent);
}

/// The CDN half of the paper's P2 chain runs live too: an edge cache
/// fetches its miss from the origin over loopback UDP on one epoll loop.
TEST(EpollRuntimeTest, ContentFetchThroughEdgeCacheOverLoopback) {
  EpollRuntime rt;
  {
    const cdn::Url url = cdn::Url::must_parse("video.mec.test/seg-0001");
    cdn::ContentCatalog catalog;
    catalog.add(url, 4096);
    const LatencyModel instant = LatencyModel::constant(SimTime::zero());
    cdn::OriginServer origin(rt, "origin", catalog, instant, /*port=*/0);
    cdn::CacheServer::Config cache_config;
    cache_config.service_time = instant;
    cache_config.parent = origin.endpoint();
    cdn::CacheServer cache(rt, "edge-cache", cache_config, /*port=*/0);
    cdn::ContentClient client(rt);

    std::optional<cdn::ContentResponse> got;
    client.get(cache.endpoint(), url,
               [&](util::Result<cdn::ContentResponse> response, SimTime) {
                 if (response.ok()) got = response.value();
                 rt.stop();
               });
    rt.run_until(rt.now() + SimTime::millis(5000));
    ASSERT_TRUE(got.has_value()) << "no content response within 5 s";
    EXPECT_EQ(got->status, 200);
    EXPECT_EQ(got->size_bytes, 4096u);
    EXPECT_FALSE(got->served_from_cache);
    EXPECT_EQ(cache.stats().parent_fetches, 1u);
    EXPECT_EQ(origin.requests(), 1u);
    EXPECT_TRUE(cache.cached(url));
  }
  EXPECT_EQ(rt.open_sockets(), 0u);
}

/// ...and the C-DNS routes a real stub to its edge cache.
TEST(EpollRuntimeTest, TrafficRouterAnswersStubOverLoopback) {
  EpollRuntime rt;
  {
    cdn::TrafficRouter::Config config;
    config.cdn_domain = DnsName::must_parse("mycdn.test");
    cdn::TrafficRouter router(rt, "c-dns",
                              LatencyModel::constant(SimTime::zero()), config,
                              /*port=*/0);
    router.add_cache("edge", cdn::CacheInfo{
                                 "edge-0", Ipv4Address::must_parse("10.96.1.1"),
                                 true});
    router.add_delivery_service(cdn::DeliveryService{
        "demo1", DnsName::must_parse("demo1.mycdn.test"), {"edge"}});
    router.coverage().set_default_group("edge");

    dns::StubResolver stub(rt, router.endpoint());
    dns::StubResult result;
    stub.resolve(DnsName::must_parse("video.demo1.mycdn.test"), RecordType::kA,
                 [&](const dns::StubResult& r) {
                   result = r;
                   rt.stop();
                 });
    rt.run_until(rt.now() + SimTime::millis(5000));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(result.address.has_value());
    EXPECT_EQ(*result.address, Ipv4Address::must_parse("10.96.1.1"));
    EXPECT_EQ(router.router_stats().routed, 1u);
  }
  EXPECT_EQ(rt.open_sockets(), 0u);
}

class SimRuntimeTest : public ::testing::Test {
 protected:
  SimRuntimeTest() : net_(sim_, util::Rng(7)) {
    node_ = net_.add_node("edge", Ipv4Address::must_parse("10.0.0.1"));
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId node_;
};

/// The same stack the epoll round-trip runs works identically over the
/// simulated runtime, which is the whole point of the abstraction.
TEST_F(SimRuntimeTest, SameDnsStackRunsOverSimulatedRuntime) {
  Runtime& rt = net_.runtime(node_);
  dns::AuthoritativeServer server(rt, "edge-auth",
                                  LatencyModel::constant(SimTime::micros(500)));
  dns::Zone& zone = server.add_zone(DnsName::must_parse("mec.test"));
  zone.must_add(dns::make_a(DnsName::must_parse("video.mec.test"),
                            Ipv4Address::must_parse("192.0.2.7"), 60));

  dns::StubResolver stub(rt, server.endpoint());
  dns::StubResult result;
  bool done = false;
  stub.resolve(DnsName::must_parse("video.mec.test"), RecordType::kA,
               [&](const dns::StubResult& r) {
                 result = r;
                 done = true;
               });
  sim_.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  ASSERT_TRUE(result.address.has_value());
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("192.0.2.7"));
}

/// Components on one node share the Network-owned runtime, so each must
/// close what it opened: once they are gone, every port binds again.
TEST_F(SimRuntimeTest, ComponentsOnOneNodeShareItsRuntimeAndFreeTheirPorts) {
  EXPECT_EQ(&net_.runtime(node_), &net_.runtime(node_));
  std::vector<std::uint16_t> ports;
  {
    const LatencyModel instant = LatencyModel::constant(SimTime::zero());
    dns::AuthoritativeServer auth(net_.runtime(node_), "auth", instant);
    dns::PluginChainServer ldns(net_.runtime(node_), "ldns", instant, 5300);
    dns::StubResolver stub(net_.runtime(node_), auth.endpoint());
    ports = {auth.endpoint().port, ldns.endpoint().port,
             ldns.transport().local_endpoint().port,
             stub.transport().local_endpoint().port};
    EXPECT_NE(ports[2], ports[3]);  // two ephemeral ports, one per owner
  }
  for (const std::uint16_t port : ports) {
    simnet::UdpSocket* socket = nullptr;
    EXPECT_NO_THROW(
        socket = net_.open_socket(node_, port, [](const simnet::Packet&) {}))
        << "port " << port << " still bound";
    net_.close_socket(socket);
  }
}

}  // namespace
}  // namespace mecdns::netio
