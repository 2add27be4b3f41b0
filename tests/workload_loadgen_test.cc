// LoadGenerator: arrival-rate properties, closed-loop behaviour, the
// O(in-flight) scheduling discipline, and determinism (the generator is
// part of the byte-identical-across-workers contract of bench_throughput).
// Its ArrivalCalendar must pop exactly the order of a (time, ue) min-heap.
#include "workload/loadgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "workload/arrival_calendar.h"

#include "simnet/simulator.h"
#include "simnet/time.h"

namespace mecdns {
namespace {

using workload::ArrivalCalendar;
using workload::LoadGenerator;

std::vector<std::pair<std::int64_t, std::uint32_t>> record_arrivals(
    simnet::Simulator& sim, LoadGenerator::Options options) {
  std::vector<std::pair<std::int64_t, std::uint32_t>> arrivals;
  LoadGenerator gen(sim, options, [&](std::uint32_t ue) {
    arrivals.emplace_back(sim.now().count_nanos(), ue);
  });
  gen.start();
  sim.run();
  return arrivals;
}

struct TestArrival {
  std::int64_t at_nanos;
  std::uint32_t ue;
};
using Reference =
    std::priority_queue<std::pair<std::int64_t, std::uint32_t>,
                        std::vector<std::pair<std::int64_t, std::uint32_t>>,
                        std::greater<>>;

/// Loads `seeded` into a calendar and a reference min-heap, then drains
/// both. After each pop, `follow_up(at, ue)` may name the popped UE's next
/// arrival (-1 for none), pushed into both. Returns the pops compared.
std::size_t drain_against_reference(
    const std::vector<TestArrival>& seeded,
    const std::function<std::int64_t(std::int64_t, std::uint32_t)>& follow_up) {
  ArrivalCalendar<TestArrival> calendar;
  Reference reference;
  for (const TestArrival& a : seeded) reference.emplace(a.at_nanos, a.ue);
  std::int64_t end = 1;
  for (const TestArrival& a : seeded) end = std::max(end, a.at_nanos + 1);
  calendar.load({seeded.begin(), seeded.end()}, 0, end);
  std::size_t pops = 0;
  while (!reference.empty()) {
    EXPECT_FALSE(calendar.empty());
    const auto [at, ue] = reference.top();
    reference.pop();
    EXPECT_EQ(calendar.top().at_nanos, at);
    EXPECT_EQ(calendar.top().ue, ue);
    const TestArrival got = calendar.pop();
    if (got.at_nanos != at || got.ue != ue) {
      ADD_FAILURE() << "pop " << pops << ": got (" << got.at_nanos << ", "
                    << got.ue << "), want (" << at << ", " << ue << ")";
      return pops;
    }
    ++pops;
    const std::int64_t next = follow_up(at, ue);
    if (next >= 0) {
      reference.emplace(next, ue);
      calendar.push(TestArrival{next, ue});
    }
  }
  EXPECT_TRUE(calendar.empty());
  return pops;
}

TEST(ArrivalCalendarTest, EqualTimestampsPopInUeOrder) {
  // Few distinct instants for many UEs, seeded out of UE order.
  std::vector<TestArrival> seeded;
  for (std::uint32_t ue = 0; ue < 3000; ++ue) {
    const std::uint32_t scrambled = (ue * 7919u) % 3000u;
    seeded.push_back({static_cast<std::int64_t>(scrambled % 13) * 1000, scrambled});
  }
  const auto none = [](std::int64_t, std::uint32_t) { return std::int64_t{-1}; };
  EXPECT_EQ(drain_against_reference(seeded, none), 3000u);
  // One instant for everyone: a single bucket.
  for (TestArrival& a : seeded) a.at_nanos = 42;
  EXPECT_EQ(drain_against_reference(seeded, none), 3000u);
}

TEST(ArrivalCalendarTest, BucketEdgesAndTinyLoads) {
  const auto none = [](std::int64_t, std::uint32_t) { return std::int64_t{-1}; };
  EXPECT_EQ(drain_against_reference({}, none), 0u);
  EXPECT_EQ(drain_against_reference({{5, 0}}, none), 1u);
  EXPECT_EQ(drain_against_reference({{9, 1}, {0, 0}}, none), 2u);
  // Times on every multiple of a bucket width and one either side of it,
  // plus the extremes of the range.
  std::vector<TestArrival> seeded;
  std::uint32_t ue = 0;
  for (std::int64_t edge = 0; edge <= 1'000'000; edge += 10'000) {
    for (std::int64_t d = -1; d <= 1; ++d) {
      if (edge + d >= 0) seeded.push_back({edge + d, ue++});
    }
  }
  seeded.push_back({0, ue++});
  seeded.push_back({1'000'001, ue++});
  EXPECT_EQ(drain_against_reference(seeded, none), seeded.size());
}

TEST(ArrivalCalendarTest, FollowUpsMergeWithTheSeededBulk) {
  // Open-loop follow-ups and closed-loop completions: the next arrival
  // lands at the same instant, inside the current bucket, just before the
  // next seeded arrival (before the armed pump), or far ahead.
  util::Rng rng(17);
  std::vector<TestArrival> seeded;
  for (std::uint32_t ue = 0; ue < 20000; ++ue) {
    if (rng.uniform_int(5) == 0) continue;
    seeded.push_back({static_cast<std::int64_t>(rng.uniform_int(10'000'000)), ue});
  }
  std::size_t follow_ups = 0;
  const auto follow_up = [&](std::int64_t at, std::uint32_t) -> std::int64_t {
    if (follow_ups == 30000) return -1;
    switch (rng.uniform_int(5)) {
      case 0:
        ++follow_ups;
        return at;  // same instant: its old entry just left
      case 1:
        ++follow_ups;
        return at + static_cast<std::int64_t>(rng.uniform_int(300));
      case 2:
        ++follow_ups;
        return at + 1 + static_cast<std::int64_t>(rng.uniform_int(2000));
      case 3:
        ++follow_ups;
        return at + static_cast<std::int64_t>(rng.uniform_int(10'000'000));
      default:
        return -1;
    }
  };
  const std::size_t pops = drain_against_reference(seeded, follow_up);
  EXPECT_EQ(follow_ups, 30000u);
  EXPECT_EQ(pops, seeded.size() + follow_ups);
}

TEST(LoadGeneratorTest, ClosedLoopCompletionsBeforeTheArmedPumpIssueOnTime) {
  // A tiny think time puts each completion's next arrival ahead of the
  // seeded arrival the pump is armed for. Every arrival must still be
  // issued at its own time, in (time, ue) order.
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 200;
  options.rate_hz = 50.0;
  options.closed_loop = true;
  options.mean_think = simnet::SimTime::micros(100);
  options.duration = simnet::SimTime::millis(50);
  options.seed = 5;
  std::vector<std::pair<std::int64_t, std::uint32_t>> issued;
  LoadGenerator* gen_ptr = nullptr;
  LoadGenerator gen(sim, options, [&](std::uint32_t ue) {
    issued.emplace_back(sim.now().count_nanos(), ue);
    // Complete after a short service time, as a resolver would.
    sim.schedule_after(simnet::SimTime::micros(20),
                       [&gen_ptr, ue] { gen_ptr->complete(ue); });
  });
  gen_ptr = &gen;
  gen.start();
  sim.run();
  EXPECT_GT(issued.size(), 10000u);
  EXPECT_TRUE(std::is_sorted(issued.begin(), issued.end()));
  EXPECT_EQ(gen.issued(), issued.size());
  EXPECT_EQ(gen.completed(), issued.size());
  EXPECT_TRUE(gen.drained());
}

TEST(LoadGeneratorTest, EarlierClosedLoopArrivalReplacesTheArmedPump) {
  // Two UEs a second or so apart. Once the first is issued the pump is
  // armed for the second; completing the first with a 1 us think time puts
  // its next arrival ahead of that, and the pump is re-armed for it — one
  // live event, not a second one beside the superseded pump.
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 2;
  options.rate_hz = 1.0;
  options.closed_loop = true;
  options.mean_think = simnet::SimTime::micros(1);
  options.duration = simnet::SimTime::seconds(100);
  options.seed = 3;
  std::vector<std::uint32_t> issued;
  LoadGenerator gen(sim, options,
                    [&](std::uint32_t ue) { issued.push_back(ue); });
  gen.start();
  while (issued.empty() && sim.step()) {
  }
  ASSERT_EQ(issued.size(), 1u);
  ASSERT_EQ(sim.pending(), 1u);
  gen.complete(issued[0]);
  EXPECT_EQ(sim.pending(), 1u);
  ASSERT_TRUE(sim.step());
  ASSERT_EQ(issued.size(), 2u);
  EXPECT_EQ(issued[1], issued[0]);  // the completed UE, ahead of the other
  EXPECT_EQ(sim.pending(), 1u);     // armed for the other UE again
}

TEST(LoadGeneratorTest, DestroyedGeneratorCancelsItsPump) {
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 100;
  options.rate_hz = 10.0;
  options.duration = simnet::SimTime::seconds(1);
  std::uint64_t issued = 0;
  auto gen = std::make_unique<LoadGenerator>(
      sim, options, [&](std::uint32_t) { ++issued; });
  gen->start();
  sim.run_until(simnet::SimTime::millis(500));
  const std::uint64_t before = issued;
  ASSERT_GT(before, 0u);
  ASSERT_EQ(sim.pending(), 1u);
  gen.reset();
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();  // would run the dead generator's pump
  EXPECT_EQ(issued, before);
}

TEST(LoadGeneratorTest, OpenLoopRateMatchesConfiguredRate) {
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 500;
  options.rate_hz = 2.0;
  options.duration = simnet::SimTime::seconds(10);
  options.seed = 11;
  const auto arrivals = record_arrivals(sim, options);

  // 500 UEs x 2 Hz x 10 s = 10000 expected arrivals; Poisson stddev is
  // sqrt(10000) = 100, so +-5% is a > 5-sigma band — a property, not a
  // golden value.
  const double expected = 500 * 2.0 * 10.0;
  EXPECT_GT(static_cast<double>(arrivals.size()), expected * 0.95);
  EXPECT_LT(static_cast<double>(arrivals.size()), expected * 1.05);
}

TEST(LoadGeneratorTest, ArrivalsStayInsideWindowAndAreTimeOrdered) {
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 200;
  options.rate_hz = 1.0;
  options.duration = simnet::SimTime::seconds(5);
  options.seed = 3;
  const auto arrivals = record_arrivals(sim, options);
  ASSERT_FALSE(arrivals.empty());
  std::int64_t prev = -1;
  for (const auto& [at, ue] : arrivals) {
    EXPECT_GE(at, 0);
    EXPECT_LT(at, simnet::SimTime::seconds(5).count_nanos());
    EXPECT_GE(at, prev);  // issued in nondecreasing time order
    prev = at;
  }
}

TEST(LoadGeneratorTest, DeterministicAcrossRunsAndSeedSensitive) {
  LoadGenerator::Options options;
  options.ues = 300;
  options.rate_hz = 0.5;
  options.duration = simnet::SimTime::seconds(8);
  options.seed = 42;

  simnet::Simulator sim_a;
  simnet::Simulator sim_b;
  const auto a = record_arrivals(sim_a, options);
  const auto b = record_arrivals(sim_b, options);
  EXPECT_EQ(a, b);

  options.seed = 43;
  simnet::Simulator sim_c;
  const auto c = record_arrivals(sim_c, options);
  EXPECT_NE(a, c);
}

TEST(LoadGeneratorTest, EventQueueStaysTinyRegardlessOfPopulation) {
  // The generator's whole point: 50k UEs' pending arrivals live in its own
  // heap, not the simulator queue — one armed pump event at a time.
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 50000;
  options.rate_hz = 0.1;
  options.duration = simnet::SimTime::seconds(2);
  options.seed = 5;
  std::uint64_t issued = 0;
  LoadGenerator gen(sim, options, [&](std::uint32_t) { ++issued; });
  gen.start();
  sim.run();
  EXPECT_GT(issued, 5000u);
  EXPECT_LE(sim.max_queue_depth(), 3u);
}

TEST(LoadGeneratorTest, ClosedLoopWaitsForCompletions) {
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 50;
  options.rate_hz = 1.0;
  options.closed_loop = true;
  options.mean_think = simnet::SimTime::millis(100);
  options.duration = simnet::SimTime::seconds(10);
  options.seed = 9;

  // Nobody calls complete(): each UE issues at most its first arrival.
  std::uint64_t issued = 0;
  LoadGenerator gen(sim, options, [&](std::uint32_t) { ++issued; });
  gen.start();
  sim.run();
  EXPECT_LE(issued, 50u);
  EXPECT_GT(issued, 0u);
}

TEST(LoadGeneratorTest, ClosedLoopCompletionsDriveFurtherArrivals) {
  simnet::Simulator sim;
  LoadGenerator::Options options;
  options.ues = 50;
  options.rate_hz = 1.0;
  options.closed_loop = true;
  options.mean_think = simnet::SimTime::millis(100);
  options.duration = simnet::SimTime::seconds(10);
  options.seed = 9;

  // Complete immediately: each UE cycles think -> issue -> think...
  LoadGenerator* gen_ptr = nullptr;
  LoadGenerator gen(sim, options,
                    [&](std::uint32_t ue) { gen_ptr->complete(ue); });
  gen_ptr = &gen;
  gen.start();
  sim.run();
  // ~50 UEs x (10 s / 0.1 s think) = ~5000; demand well above one round.
  EXPECT_GT(gen.issued(), 1000u);
  EXPECT_EQ(gen.issued(), gen.completed());
  EXPECT_TRUE(gen.drained());
}

TEST(LoadGeneratorTest, ZeroRateOrZeroUesIssuesNothing) {
  {
    simnet::Simulator sim;
    LoadGenerator::Options options;
    options.ues = 0;
    const auto arrivals = record_arrivals(sim, options);
    EXPECT_TRUE(arrivals.empty());
  }
  {
    simnet::Simulator sim;
    LoadGenerator::Options options;
    options.ues = 100;
    options.rate_hz = 0.0;
    const auto arrivals = record_arrivals(sim, options);
    EXPECT_TRUE(arrivals.empty());
  }
}

}  // namespace
}  // namespace mecdns
