// Trace sampling tests: deterministic head sampling by seeded hash,
// tail-based retention for slow/failed lookups, and bounded sink growth on
// large runs.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/trace.h"
#include "simnet/simulator.h"

namespace mecdns::obs {
namespace {

using simnet::SimTime;

TraceSink::SamplingConfig sampled(double rate, std::uint64_t seed) {
  TraceSink::SamplingConfig config;
  config.head_rate = rate;
  config.seed = seed;
  config.keep_slower_than = SimTime::millis(20);
  return config;
}

/// Runs `n` instant roots named q0..q(n-1) through the sink and returns
/// the names that survived.
std::set<std::string> kept_roots(TraceSink& sink, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    const SpanId id = sink.begin(0, "stub", "q" + k);
    sink.end(id);
  }
  std::set<std::string> kept;
  for (const auto& span : sink.spans()) {
    if (span.id != 0) kept.insert(span.name);
  }
  return kept;
}

TEST(TraceSamplingTest, SameSeedKeepsTheSameRoots) {
  simnet::Simulator sim;
  TraceSink a(sim);
  a.set_sampling(sampled(0.3, 7));
  TraceSink b(sim);
  b.set_sampling(sampled(0.3, 7));

  const auto kept_a = kept_roots(a, 200);
  const auto kept_b = kept_roots(b, 200);
  EXPECT_EQ(kept_a, kept_b);
  // Rate 0.3 keeps a nontrivial strict subset.
  EXPECT_GT(kept_a.size(), 0u);
  EXPECT_LT(kept_a.size(), 200u);
  EXPECT_EQ(a.roots_seen(), 200u);
  EXPECT_EQ(a.roots_seen() - a.roots_dropped(), kept_a.size());
}

TEST(TraceSamplingTest, DifferentSeedsKeepDifferentRoots) {
  simnet::Simulator sim;
  TraceSink a(sim);
  a.set_sampling(sampled(0.3, 7));
  TraceSink b(sim);
  b.set_sampling(sampled(0.3, 8));
  EXPECT_NE(kept_roots(a, 200), kept_roots(b, 200));
}

TEST(TraceSamplingTest, RateOneIsByteIdenticalToUnsampled) {
  simnet::Simulator sim;
  TraceSink plain(sim);
  TraceSink full(sim);
  full.set_sampling(sampled(1.0, 42));

  for (TraceSink* sink : {&plain, &full}) {
    for (int i = 0; i < 20; ++i) {
      const std::string n = std::to_string(i);
      const SpanId root = sink->begin(0, "stub", "q" + n);
      const SpanId child = sink->begin(root, "transport", "rpc");
      sink->add_tag(child, "server", "10.0.0.1");
      sink->end(child);
      sink->end(root);
    }
  }
  EXPECT_EQ(full.to_chrome_trace(), plain.to_chrome_trace());
  EXPECT_EQ(full.size(), plain.size());
  EXPECT_EQ(full.roots_dropped(), 0u);
}

TEST(TraceSamplingTest, TailKeepsSlowRoots) {
  simnet::Simulator sim;
  TraceSink sink(sim);
  sink.set_sampling(sampled(0.0, 1));  // head drops everything

  SpanId slow = 0;
  SpanId fast = 0;
  sim.schedule_at(SimTime::zero(), [&] {
    slow = sink.begin(0, "stub", "slow lookup");
    fast = sink.begin(0, "stub", "fast lookup");
  });
  sim.schedule_at(SimTime::millis(5), [&] { sink.end(fast); });
  sim.schedule_at(SimTime::millis(25), [&] { sink.end(slow); });
  sim.run();

  EXPECT_EQ(sink.size(), 1u);
  ASSERT_NE(sink.find(slow), nullptr);
  EXPECT_EQ(sink.find(slow)->name, "slow lookup");
  EXPECT_EQ(sink.find(fast), nullptr);
  EXPECT_EQ(sink.roots_dropped(), 1u);
}

TEST(TraceSamplingTest, ForceKeepOnAChildRetainsTheWholeTree) {
  simnet::Simulator sim;
  TraceSink sink(sim);
  sink.set_sampling(sampled(0.0, 1));

  // A failed lookup: the component calls keep() on its (child) span.
  const SpanId root = sink.begin(0, "stub", "failed lookup");
  const SpanId child = sink.begin(root, "transport", "rpc");
  sink.force_keep(child);  // what SpanRef::keep() calls
  sink.end(child);
  sink.end(root);

  // A plain fast lookup: dropped.
  const SpanId boring = sink.begin(0, "stub", "boring lookup");
  sink.end(boring);

  EXPECT_EQ(sink.size(), 2u);
  EXPECT_NE(sink.find(root), nullptr);
  EXPECT_NE(sink.find(child), nullptr);
  EXPECT_EQ(sink.find(boring), nullptr);
}

TEST(TraceSamplingTest, DroppedSubtreesReleaseTheirSlots) {
  simnet::Simulator sim;
  TraceSink sink(sim);
  sink.set_sampling(sampled(0.0, 1));

  for (int i = 0; i < 1000; ++i) {
    const std::string n = std::to_string(i);
    const SpanId root = sink.begin(0, "stub", "q" + n);
    const SpanId child = sink.begin(root, "transport", "rpc");
    sink.end(child);
    sink.end(root);
  }
  EXPECT_EQ(sink.roots_seen(), 1000u);
  EXPECT_EQ(sink.roots_dropped(), 1000u);
  EXPECT_EQ(sink.size(), 0u);
  // The raw store reuses reclaimed slots instead of growing per root.
  EXPECT_LE(sink.spans().size(), 4u);
}

TEST(TraceSamplingTest, UnfinishedCountsOnlyLiveOpenSpans) {
  simnet::Simulator sim;
  TraceSink sink(sim);
  const SpanId root = sink.begin(0, "stub", "q");
  const SpanId child = sink.begin(root, "transport", "rpc");
  sink.end(child);
  EXPECT_EQ(sink.unfinished(), 1u);
  sink.end(root);
  EXPECT_EQ(sink.unfinished(), 0u);
}

TEST(TraceSamplingTest, ClearResetsSamplingState) {
  simnet::Simulator sim;
  TraceSink sink(sim);
  sink.set_sampling(sampled(0.0, 1));
  const SpanId root = sink.begin(0, "stub", "q0");
  sink.end(root);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.roots_seen(), 0u);
  EXPECT_EQ(sink.roots_dropped(), 0u);
  // Ids restart from 1, exactly like a fresh sink.
  const SpanId again = sink.begin(0, "stub", "q0");
  EXPECT_EQ(again, 1u);
  sink.end(again);
}

}  // namespace
}  // namespace mecdns::obs
