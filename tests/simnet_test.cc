#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "simnet/ip.h"
#include "simnet/latency.h"
#include "simnet/network.h"
#include "simnet/simulator.h"
#include "simnet/time.h"

namespace mecdns::simnet {
namespace {

// --- SimTime -------------------------------------------------------------------

TEST(SimTime, ConversionsAndArithmetic) {
  EXPECT_EQ(SimTime::millis(1.5).count_nanos(), 1'500'000);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2).to_millis(), 2000.0);
  EXPECT_EQ(SimTime::millis(1) + SimTime::micros(500),
            SimTime::micros(1500));
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_EQ(SimTime::millis(3) * 2, SimTime::millis(6));
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::micros(250).to_string(), "250.000us");
  EXPECT_EQ(SimTime::millis(2.5).to_string(), "2.500ms");
  EXPECT_EQ(SimTime::seconds(1.5).to_string(), "1.500s");
}

// --- Simulator -------------------------------------------------------------------

TEST(Simulator, RunsInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::millis(3), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::millis(1), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(3));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::millis(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(SimTime::millis(1), recurse);
  };
  sim.schedule_after(SimTime::millis(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::millis(5));
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.schedule_at(SimTime::millis(10), [&] {
    sim.schedule_at(SimTime::millis(1), [] {});  // in the past
  });
  sim.run();
  EXPECT_EQ(sim.now(), SimTime::millis(10));
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::millis(1), [&] { ++fired; });
  sim.schedule_at(SimTime::millis(10), [&] { ++fired; });
  sim.run_until(SimTime::millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::millis(5));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, CancelledEventsLeaveTheQueue) {
  Simulator sim;
  bool cancelled_ran = false;
  const EventId early =
      sim.schedule_at(SimTime::millis(1), [&] { cancelled_ran = true; });
  const EventId late = sim.schedule_at(SimTime::seconds(2), [] {});
  EXPECT_NE(early, kNoEvent);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(early));
  EXPECT_FALSE(sim.cancel(early));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.empty());
  // Two live events again: the high-water mark counts live events only.
  sim.schedule_at(SimTime::millis(3), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.max_queue_depth(), 2u);
  EXPECT_TRUE(sim.cancel(late));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(sim.empty());
  // The clock stops at the last live event, not at the cancelled one.
  EXPECT_EQ(sim.now(), SimTime::millis(3));
}

TEST(Simulator, OrderSurvivesMassCancellation) {
  // Cancelling most of a large queue sweeps its tombstones; the survivors
  // must still run in (time, schedule order).
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(SimTime::millis(i % 7),
                                  [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 1000; ++i) {
    if (i % 10 != 0) sim.cancel(ids[i]);
  }
  EXPECT_EQ(sim.pending(), 100u);
  EXPECT_EQ(sim.max_queue_depth(), 1000u);
  sim.run();
  std::vector<int> expected;
  for (int ms = 0; ms < 7; ++ms) {
    for (int i = 0; i < 1000; i += 10) {
      if (i % 7 == ms) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

// --- In-place events: built, run and destroyed in their slots -------------

/// Counts its moves, and its destructions once it owns the payload (a
/// moved-from probe owns nothing).
struct Probe {
  int* moves;
  int* destroyed;
  int* calls;
  Probe(int* m, int* d, int* c) : moves(m), destroyed(d), calls(c) {}
  Probe(Probe&& other) noexcept
      : moves(other.moves), destroyed(other.destroyed), calls(other.calls) {
    other.destroyed = nullptr;
    ++*moves;
  }
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() { ++*calls; }
};

TEST(Simulator, LambdasAreBuiltInTheirSlotAndNeverRelocated) {
  Simulator sim;
  int moves = 0, destroyed = 0, calls = 0;
  sim.schedule_at(SimTime::millis(1), Probe(&moves, &destroyed, &calls));
  // The one move builds it in its queue slot: scheduling relocates nothing.
  EXPECT_EQ(moves, 1);
  // Neighbours that grow the slot storage do not move it either.
  for (int i = 0; i < 300; ++i) sim.schedule_at(SimTime::millis(2), [] {});
  EXPECT_EQ(moves, 1);
  sim.run();
  EXPECT_EQ(moves, 1);  // it ran where it was built
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);

  // A Callback built by the caller is relocated once, into the slot.
  moves = destroyed = calls = 0;
  Simulator::Callback fn(Probe(&moves, &destroyed, &calls));
  EXPECT_EQ(moves, 1);
  sim.schedule_after(SimTime::millis(1), std::move(fn));
  EXPECT_EQ(moves, 2);
  sim.run();
  EXPECT_EQ(moves, 2);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(Simulator, CapturesAreDestroyedExactlyOnce) {
  int moves = 0, destroyed = 0, calls = 0;
  {
    Simulator sim;
    sim.schedule_at(SimTime::millis(1), Probe(&moves, &destroyed, &calls));
    const EventId cancelled =
        sim.schedule_at(SimTime::millis(2), Probe(&moves, &destroyed, &calls));
    sim.schedule_at(SimTime::millis(3), Probe(&moves, &destroyed, &calls));
    EXPECT_EQ(destroyed, 0);
    EXPECT_TRUE(sim.cancel(cancelled));  // destroyed on cancel
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(sim.cancel(cancelled));
    EXPECT_TRUE(sim.step());  // destroyed after it fires
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(destroyed, 2);
    EXPECT_EQ(sim.pending(), 1u);
  }  // the pending one goes with the queue
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 3);
}

TEST(Simulator, RunningCallbackKeepsItsCaptureWhileTheQueueGrows) {
  Simulator sim;
  std::array<std::uint8_t, 160> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const auto expected = bytes;
  std::size_t children = 0;
  bool intact = false;
  sim.schedule_at(SimTime::millis(1), [&, bytes] {
    // Far more events than one block of slots holds: the storage grows
    // while this callback runs, and must not move it.
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_after(SimTime::millis(1), [&children] { ++children; });
    }
    intact = bytes == expected;
  });
  sim.run();
  EXPECT_TRUE(intact);
  EXPECT_EQ(children, 1000u);
}

TEST(Simulator, CancellingTheRunningEventIsANoOp) {
  Simulator sim;
  EventId self = kNoEvent;
  bool cancel_result = true;
  std::size_t pending_before = 0, pending_after = 0;
  int later_runs = 0;
  self = sim.schedule_at(SimTime::millis(1), [&] {
    pending_before = sim.pending();
    cancel_result = sim.cancel(self);
    pending_after = sim.pending();
    // A push during the call takes a fresh slot, not the running one.
    const EventId child = sim.schedule_after(SimTime::millis(1), [&] {
      ++later_runs;
    });
    EXPECT_NE(child, self);
    EXPECT_FALSE(sim.cancel(self));
  });
  sim.schedule_at(SimTime::millis(2), [&] { ++later_runs; });
  sim.run();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(pending_before, 1u);
  EXPECT_EQ(pending_after, 1u);
  EXPECT_EQ(later_runs, 2);
  EXPECT_FALSE(sim.cancel(self));
}

TEST(Simulator, StaleIdsStayNoOpsAcrossSweepAndSlotReuse) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> first;
  for (int i = 0; i < 500; ++i) {
    first.push_back(sim.schedule_at(SimTime::millis(10 + i % 5),
                                    [&fired, i] { fired.push_back(i); }));
  }
  // Cancelling most of them sweeps the tombstones out of the key heap.
  for (int i = 0; i < 500; ++i) {
    if (i % 50 != 0) {
      EXPECT_TRUE(sim.cancel(first[i]));
    }
  }
  // New events reuse the freed slots; no stale id reaches them.
  std::vector<EventId> second;
  for (int i = 0; i < 490; ++i) {
    second.push_back(sim.schedule_at(SimTime::millis(1),
                                     [&fired, i] { fired.push_back(1000 + i); }));
  }
  for (int i = 0; i < 500; ++i) {
    if (i % 50 != 0) {
      EXPECT_FALSE(sim.cancel(first[i]));
    }
  }
  EXPECT_EQ(sim.pending(), 500u);
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 490; ++i) expected.push_back(1000 + i);
  for (int ms = 10; ms < 15; ++ms) {
    for (int i = 0; i < 500; i += 50) {
      if (10 + i % 5 == ms) expected.push_back(i);
    }
  }
  EXPECT_EQ(fired, expected);
  // Fired ids are stale too, after their slots were reused again.
  for (int i = 0; i < 100; ++i) sim.schedule_at(SimTime::millis(20), [] {});
  for (const EventId id : first) EXPECT_FALSE(sim.cancel(id));
  for (const EventId id : second) EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 100u);
}

// --- IP addressing -----------------------------------------------------------------

TEST(Ipv4, ParseAndFormat) {
  const auto addr = Ipv4Address::must_parse("192.168.1.10");
  EXPECT_EQ(addr.to_string(), "192.168.1.10");
  EXPECT_EQ(addr.value(), 0xc0a8010au);
  EXPECT_EQ(Ipv4Address(10, 0, 0, 1), Ipv4Address::must_parse("10.0.0.1"));
}

struct BadAddrCase {
  const char* text;
};
class BadAddrTest : public ::testing::TestWithParam<BadAddrCase> {};

TEST_P(BadAddrTest, Rejected) {
  EXPECT_FALSE(Ipv4Address::parse(GetParam().text).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadAddrTest,
    ::testing::Values(BadAddrCase{""}, BadAddrCase{"1.2.3"},
                      BadAddrCase{"1.2.3.4.5"}, BadAddrCase{"256.1.1.1"},
                      BadAddrCase{"a.b.c.d"}, BadAddrCase{"1..2.3"},
                      BadAddrCase{"1.2.3.-4"}, BadAddrCase{"1.2.3.4 "}));

TEST(Cidr, ContainsAndHosts) {
  const auto block = Cidr::must_parse("10.96.0.0/16");
  EXPECT_TRUE(block.contains(Ipv4Address::must_parse("10.96.255.1")));
  EXPECT_FALSE(block.contains(Ipv4Address::must_parse("10.97.0.1")));
  EXPECT_EQ(block.size(), 65536u);
  EXPECT_EQ(block.host(10), Ipv4Address::must_parse("10.96.0.10"));
  EXPECT_EQ(block.to_string(), "10.96.0.0/16");
}

TEST(Cidr, NestedContainment) {
  const auto wide = Cidr::must_parse("23.0.0.0/8");
  const auto narrow = Cidr::must_parse("23.55.124.0/24");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
}

TEST(Cidr, EdgePrefixLengths) {
  const auto all = Cidr::must_parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(Ipv4Address::must_parse("255.255.255.255")));
  const auto host = Cidr::must_parse("1.2.3.4/32");
  EXPECT_TRUE(host.contains(Ipv4Address::must_parse("1.2.3.4")));
  EXPECT_FALSE(host.contains(Ipv4Address::must_parse("1.2.3.5")));
  EXPECT_FALSE(Cidr::parse("1.2.3.4/33").ok());
  EXPECT_FALSE(Cidr::parse("1.2.3.4").ok());
}

// --- latency models -------------------------------------------------------------

TEST(LatencyModel, ConstantAlwaysSame) {
  util::Rng rng(1);
  const auto model = LatencyModel::constant(SimTime::millis(5));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.sample(rng), SimTime::millis(5));
  }
  EXPECT_EQ(model.mean(), SimTime::millis(5));
}

TEST(LatencyModel, UniformWithinBounds) {
  util::Rng rng(2);
  const auto model = LatencyModel::uniform(SimTime::millis(1),
                                           SimTime::millis(3));
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = model.sample(rng);
    EXPECT_GE(t, SimTime::millis(1));
    EXPECT_LE(t, SimTime::millis(3));
  }
}

TEST(LatencyModel, NormalRespectsFloor) {
  util::Rng rng(3);
  const auto model = LatencyModel::normal(SimTime::millis(1),
                                          SimTime::millis(5),
                                          SimTime::micros(100));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample(rng), SimTime::micros(100));
  }
}

TEST(LatencyModel, LognormalMeanApproximatelyRight) {
  util::Rng rng(4);
  const auto model =
      LatencyModel::lognormal(SimTime::millis(7), SimTime::millis(2.4), 0.75);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += model.sample(rng).to_millis();
  EXPECT_NEAR(sum / n, model.mean().to_millis(), 0.15);
  // heavy tail: samples can far exceed the mean
  EXPECT_GT(model.mean().to_millis(), 9.0);
  EXPECT_LT(model.mean().to_millis(), 11.5);
}

TEST(LatencyModel, GoldenDrawsAndMeans) {
  // Each kind's first eight samples from a fresh Rng(2020), and the word the
  // generator yields after them, which pins how many draws a sample takes.
  // Any change to a kind's arithmetic or RNG use shows here.
  struct Golden {
    const char* kind;
    LatencyModel model;
    std::int64_t mean_ns;
    std::array<std::int64_t, 8> samples_ns;
    std::uint64_t next_word;
  };
  const Golden golden[] = {
      {"default", LatencyModel(), 0, {0, 0, 0, 0, 0, 0, 0, 0},
       2536873039720582659ULL},
      {"constant", LatencyModel::constant(SimTime::millis(2)), 2'000'000,
       {2000000, 2000000, 2000000, 2000000, 2000000, 2000000, 2000000,
        2000000},
       2536873039720582659ULL},
      {"uniform",
       LatencyModel::uniform(SimTime::millis(2), SimTime::millis(4)),
       3'000'000,
       {2275048, 2562452, 3648665, 2080410, 3107390, 2917216, 2191208,
        2915572},
       903212649592062435ULL},
      {"normal",
       LatencyModel::normal(SimTime::millis(5), SimTime::millis(2),
                            SimTime::millis(4)),
       5'000'000,
       {4223357, 6203704, 4000000, 4000000, 4000000, 5226434, 4000000,
        4000000},
       11508148930661117345ULL},
      {"lognormal",
       LatencyModel::lognormal(SimTime::millis(1), SimTime::millis(1), 0.5),
       2'133'148,
       {1823525, 2351109, 1591329, 1351509, 1575977, 2058241, 1692568,
        1555279},
       11508148930661117345ULL},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.kind);
    EXPECT_EQ(g.model.mean().count_nanos(), g.mean_ns);
    util::Rng rng(2020);
    for (const std::int64_t expected : g.samples_ns) {
      EXPECT_EQ(g.model.sample(rng).count_nanos(), expected);
    }
    EXPECT_EQ(rng.next(), g.next_word);
  }
}

// --- network -----------------------------------------------------------------------

/// A one-byte payload for tests that only care where a packet goes.
constexpr std::uint8_t kByte[] = {0};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_, util::Rng(5)) {}

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversBetweenDirectNeighbors) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  net_.add_link(a, b, LatencyModel::constant(SimTime::millis(3)));

  std::vector<std::uint8_t> received;
  SimTime arrival;
  net_.open_socket(b, 99, [&](const Packet& p) {
    received = p.payload;
    arrival = net_.now();
  });
  UdpSocket* sender = net_.open_socket(a, 0, nullptr);
  const std::vector<std::uint8_t> payload{1, 2, 3};
  sender->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 99}, payload);
  sim_.run();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(arrival, SimTime::millis(3));
  EXPECT_EQ(net_.stats().delivered, 1u);
}

TEST_F(NetworkTest, RoutesViaShortestPath) {
  // a - b - d is 2ms; a - c - d is 10ms: traffic must take the b path.
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  const NodeId c = net_.add_node("c", Ipv4Address::must_parse("10.0.0.3"));
  const NodeId d = net_.add_node("d", Ipv4Address::must_parse("10.0.0.4"));
  net_.add_link(a, b, LatencyModel::constant(SimTime::millis(1)));
  net_.add_link(b, d, LatencyModel::constant(SimTime::millis(1)));
  net_.add_link(a, c, LatencyModel::constant(SimTime::millis(5)));
  net_.add_link(c, d, LatencyModel::constant(SimTime::millis(5)));

  bool b_saw_it = false;
  net_.add_tap(b, [&](const Packet&, SimTime) { b_saw_it = true; });
  SimTime arrival;
  net_.open_socket(d, 7, [&](const Packet&) { arrival = net_.now(); });
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.4"), 7}, kByte);
  sim_.run();
  EXPECT_TRUE(b_saw_it);
  EXPECT_EQ(arrival, SimTime::millis(2));
  EXPECT_EQ(*net_.route_cost(a, d), SimTime::millis(2));
}

TEST_F(NetworkTest, ReroutesAroundDownLink) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  const NodeId c = net_.add_node("c", Ipv4Address::must_parse("10.0.0.3"));
  const LinkId fast = net_.add_link(a, b,
                                    LatencyModel::constant(SimTime::millis(1)));
  net_.add_link(a, c, LatencyModel::constant(SimTime::millis(4)));
  net_.add_link(c, b, LatencyModel::constant(SimTime::millis(4)));

  net_.set_link_up(fast, false);
  SimTime arrival;
  net_.open_socket(b, 7, [&](const Packet&) { arrival = net_.now(); });
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(arrival, SimTime::millis(8));
}

TEST_F(NetworkTest, DropsWhenNoRoute) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));  // not linked
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 7}, kByte);
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("99.9.9.9"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(net_.stats().dropped_no_route, 2u);
  EXPECT_EQ(net_.stats().delivered, 0u);
}

TEST_F(NetworkTest, DropsToDownNode) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  net_.add_link(a, b, LatencyModel::constant(SimTime::millis(1)));
  net_.open_socket(b, 7, [](const Packet&) { FAIL(); });
  net_.set_node_up(b, false);
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(net_.stats().delivered, 0u);
}

TEST_F(NetworkTest, TransitHookRewritesLikeNat) {
  // a -> m -> b where m rewrites the source address (NAT-style).
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId m = net_.add_node("m", Ipv4Address::must_parse("203.0.113.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.3"));
  net_.add_link(a, m, LatencyModel::constant(SimTime::millis(1)));
  net_.add_link(m, b, LatencyModel::constant(SimTime::millis(1)));
  net_.set_transit_hook(m, [](Packet& p) {
    if (p.src.addr == Ipv4Address::must_parse("10.0.0.1")) {
      p.src.addr = Ipv4Address::must_parse("203.0.113.1");
    }
    return TransitAction::kForward;
  });
  Endpoint seen_src;
  net_.open_socket(b, 7, [&](const Packet& p) { seen_src = p.src; });
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.3"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(seen_src.addr, Ipv4Address::must_parse("203.0.113.1"));
}

TEST_F(NetworkTest, TransitHookCanDrop) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId m = net_.add_node("m", Ipv4Address::must_parse("10.0.0.2"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.3"));
  net_.add_link(a, m, LatencyModel::constant(SimTime::millis(1)));
  net_.add_link(m, b, LatencyModel::constant(SimTime::millis(1)));
  net_.set_transit_hook(m, [](Packet&) { return TransitAction::kDrop; });
  net_.open_socket(b, 7, [](const Packet&) { FAIL(); });
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.3"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(net_.stats().dropped_by_hook, 1u);
}

TEST_F(NetworkTest, LinkLossDropsProbabilistically) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  const LinkId link =
      net_.add_link(a, b, LatencyModel::constant(SimTime::millis(1)));
  net_.set_link_loss(link, 0.5);
  int delivered = 0;
  net_.open_socket(b, 7, [&](const Packet&) { ++delivered; });
  UdpSocket* sender = net_.open_socket(a, 0, nullptr);
  for (int i = 0; i < 400; ++i) {
    sender->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 7}, kByte);
  }
  sim_.run();
  EXPECT_GT(delivered, 140);
  EXPECT_LT(delivered, 260);
  EXPECT_EQ(net_.stats().dropped_loss + static_cast<std::uint64_t>(delivered),
            400u);
}

TEST_F(NetworkTest, HopTraceRecordsPath) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId m = net_.add_node("m", Ipv4Address::must_parse("10.0.0.2"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.3"));
  net_.add_link(a, m, LatencyModel::constant(SimTime::millis(1)));
  net_.add_link(m, b, LatencyModel::constant(SimTime::millis(1)));
  std::vector<NodeId> path;
  for (const NodeId node : {a, m, b}) {
    net_.add_tap(node, [&, node](const Packet&, SimTime) {
      path.push_back(node);
    });
  }
  net_.open_socket(b, 7, [](const Packet&) {});
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.3"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(path, (std::vector<NodeId>{a, m, b}));
  EXPECT_EQ(net_.stats().delivered, 1u);
}

TEST_F(NetworkTest, HopCountIsOneAtTheOrigin) {
  // The count a tap reads: 1 where the packet was sent, +1 per node after.
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  net_.add_link(a, b, LatencyModel::constant(SimTime::millis(1)));
  std::vector<std::size_t> at_a;
  std::vector<std::size_t> at_b;
  net_.add_tap(a, [&](const Packet& p, SimTime) {
    at_a.push_back(p.hops.size());
  });
  net_.add_tap(b, [&](const Packet& p, SimTime) {
    at_b.push_back(p.hops.size());
  });
  net_.open_socket(b, 7, [](const Packet&) {});
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(at_a, (std::vector<std::size_t>{1}));
  EXPECT_EQ(at_b, (std::vector<std::size_t>{2}));
}

TEST_F(NetworkTest, HopLimitDropsABouncingPacket) {
  // Each node's hook points the packet back at the other node, so it
  // bounces until the hop limit drops it at its 64th forward.
  const Ipv4Address a_addr = Ipv4Address::must_parse("10.0.0.1");
  const Ipv4Address b_addr = Ipv4Address::must_parse("10.0.0.2");
  const NodeId a = net_.add_node("a", a_addr);
  const NodeId b = net_.add_node("b", b_addr);
  net_.add_link(a, b, LatencyModel::constant(SimTime::millis(1)));
  int arrivals = 0;
  const auto bounce = [&](NodeId node, Ipv4Address other) {
    net_.add_tap(node, [&](const Packet&, SimTime) { ++arrivals; });
    net_.set_transit_hook(node, [other](Packet& p) {
      p.dst.addr = other;
      return TransitAction::kForward;
    });
  };
  bounce(a, b_addr);
  bounce(b, a_addr);
  net_.open_socket(a, 0, nullptr)->send(Endpoint{b_addr, 7}, kByte);
  sim_.run();
  EXPECT_EQ(arrivals, 64);
  EXPECT_EQ(net_.stats().dropped_ttl, 1u);
  EXPECT_EQ(net_.stats().delivered, 0u);
}

TEST_F(NetworkTest, EphemeralPortsAreDistinct) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  UdpSocket* s1 = net_.open_socket(a, 0, nullptr);
  UdpSocket* s2 = net_.open_socket(a, 0, nullptr);
  EXPECT_NE(s1->port(), s2->port());
  EXPECT_GE(s1->port(), 49152);
}

TEST_F(NetworkTest, PortConflictThrows) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  net_.open_socket(a, 53, nullptr);
  EXPECT_THROW(net_.open_socket(a, 53, nullptr), std::invalid_argument);
}

TEST_F(NetworkTest, ClosedSocketStopsReceiving) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  net_.add_link(a, b, LatencyModel::constant(SimTime::millis(1)));
  UdpSocket* receiver = net_.open_socket(b, 7, [](const Packet&) { FAIL(); });
  net_.close_socket(receiver);
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 7}, kByte);
  sim_.run();
  EXPECT_EQ(net_.stats().dropped_no_socket, 1u);
}

TEST_F(NetworkTest, DuplicateAddressRejected) {
  net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b");
  EXPECT_THROW(net_.add_address(b, Ipv4Address::must_parse("10.0.0.1")),
               std::invalid_argument);
}

TEST_F(NetworkTest, MultiAddressNodeReceivesOnAll) {
  const NodeId a = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
  const NodeId b = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
  net_.add_address(b, Ipv4Address::must_parse("10.96.0.10"));  // cluster IP
  net_.add_link(a, b, LatencyModel::constant(SimTime::millis(1)));
  int received = 0;
  net_.open_socket(b, 53, [&](const Packet&) { ++received; },
                   Ipv4Address::must_parse("10.96.0.10"));
  net_.open_socket(a, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("10.96.0.10"), 53}, kByte);
  sim_.run();
  EXPECT_EQ(received, 1);
}

}  // namespace
}  // namespace mecdns::simnet
