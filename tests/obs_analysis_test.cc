// obs/analysis tests: critical-path extraction over hand-built span trees —
// self-time vs child-time attribution, per-stage aggregation, slowest-N
// exemplars and unfinished-span accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/analysis.h"

namespace mecdns::obs {
namespace {

SpanInfo span(SpanId id, SpanId parent, std::string component,
              std::string name, double start_ms, double dur_ms,
              bool finished = true) {
  SpanInfo info;
  info.id = id;
  info.parent = parent;
  info.component = std::move(component);
  info.name = std::move(name);
  info.start_ms = start_ms;
  info.dur_ms = dur_ms;
  info.finished = finished;
  return info;
}

TEST(CriticalPathTest, SelfTimeExcludesDirectChildren) {
  // root (100 ms) -> transport (30) + ldns (20); ldns -> plugin (5).
  const std::vector<SpanInfo> spans = {
      span(1, 0, "stub", "lookup", 0.0, 100.0),
      span(2, 1, "transport", "rpc", 5.0, 30.0),
      span(3, 1, "ldns", "serve", 40.0, 20.0),
      span(4, 3, "plugin", "rewrite", 42.0, 5.0),
  };
  const CriticalPathReport report = critical_path(spans);

  ASSERT_EQ(report.stages.size(), 4u);
  // First-appearance order.
  EXPECT_EQ(report.stages[0].stage, "stub");
  EXPECT_EQ(report.stages[1].stage, "transport");
  EXPECT_EQ(report.stages[2].stage, "ldns");
  EXPECT_EQ(report.stages[3].stage, "plugin");

  EXPECT_DOUBLE_EQ(report.stages[0].total_self_ms, 50.0);  // 100 - 30 - 20
  EXPECT_DOUBLE_EQ(report.stages[0].total_child_ms, 50.0);
  EXPECT_DOUBLE_EQ(report.stages[1].total_self_ms, 30.0);  // leaf
  EXPECT_DOUBLE_EQ(report.stages[2].total_self_ms, 15.0);  // 20 - 5
  EXPECT_DOUBLE_EQ(report.stages[3].total_self_ms, 5.0);

  EXPECT_EQ(report.roots, 1u);
  EXPECT_DOUBLE_EQ(report.total_root_ms, 100.0);
  EXPECT_EQ(report.unfinished, 0u);

  // Self times partition the root's wall time exactly.
  double total_self = 0.0;
  for (const auto& stage : report.stages) total_self += stage.total_self_ms;
  EXPECT_DOUBLE_EQ(total_self, 100.0);
}

TEST(CriticalPathTest, ClampsNegativeSelfTime) {
  // Overlapping async children cover more than the parent's wall time.
  const std::vector<SpanInfo> spans = {
      span(1, 0, "root", "r", 0.0, 10.0),
      span(2, 1, "child", "a", 0.0, 8.0),
      span(3, 1, "child", "b", 0.0, 8.0),
  };
  const CriticalPathReport report = critical_path(spans);
  EXPECT_DOUBLE_EQ(report.stages[0].total_self_ms, 0.0);  // not -6
  EXPECT_DOUBLE_EQ(report.stages[1].total_self_ms, 16.0);
}

TEST(CriticalPathTest, AggregatesAcrossRootsPerStage) {
  std::vector<SpanInfo> spans;
  for (int i = 0; i < 3; ++i) {
    const SpanId root = static_cast<SpanId>(2 * i + 1);
    spans.push_back(span(root, 0, "stub", "lookup", i * 100.0, 50.0));
    spans.push_back(
        span(root + 1, root, "transport", "rpc", i * 100.0 + 5, 20.0));
  }
  const CriticalPathReport report = critical_path(spans);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].spans, 3u);
  EXPECT_DOUBLE_EQ(report.stages[0].total_self_ms, 90.0);  // 3 * (50-20)
  EXPECT_EQ(report.stages[1].spans, 3u);
  EXPECT_EQ(report.stages[1].self_ms.count(), 3u);
  EXPECT_DOUBLE_EQ(report.stages[1].self_ms.mean(), 20.0);
  EXPECT_EQ(report.roots, 3u);
}

TEST(CriticalPathTest, SlowestExemplarsSortedWithStableTies) {
  std::vector<SpanInfo> spans;
  const double durations[] = {10.0, 50.0, 30.0, 50.0, 20.0};
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string n = std::to_string(i);
    spans.push_back(span(static_cast<SpanId>(i + 1), 0, "stub", "q" + n,
                         i * 100.0, durations[i]));
  }
  const CriticalPathReport report = critical_path(spans, 3);
  ASSERT_EQ(report.slowest.size(), 3u);
  EXPECT_EQ(report.slowest[0].root, 2u);  // 50 ms, lower id wins the tie
  EXPECT_EQ(report.slowest[1].root, 4u);  // 50 ms
  EXPECT_EQ(report.slowest[2].root, 3u);  // 30 ms
  EXPECT_DOUBLE_EQ(report.slowest[0].total_ms, 50.0);
}

TEST(CriticalPathTest, UnfinishedSpansCountedButExcluded) {
  const std::vector<SpanInfo> spans = {
      span(1, 0, "stub", "done", 0.0, 40.0),
      span(2, 1, "transport", "rpc", 1.0, 10.0),
      span(3, 0, "stub", "hung", 50.0, 0.0, /*finished=*/false),
  };
  const CriticalPathReport report = critical_path(spans);
  EXPECT_EQ(report.unfinished, 1u);
  EXPECT_EQ(report.roots, 1u);  // the hung root is not aggregated
  EXPECT_DOUBLE_EQ(report.total_root_ms, 40.0);
  ASSERT_EQ(report.slowest.size(), 1u);
  EXPECT_EQ(report.slowest[0].root, 1u);
}

TEST(CriticalPathTest, ExportAndTableNameEveryStage) {
  const std::vector<SpanInfo> spans = {
      span(1, 0, "stub", "lookup", 0.0, 100.0),
      span(2, 1, "transport", "rpc", 5.0, 30.0),
  };
  const CriticalPathReport report = critical_path(spans);

  Registry registry;
  export_critical_path(report, registry);
  EXPECT_EQ(registry.counter_value("critpath.roots"), 1u);
  EXPECT_EQ(registry.counter_value("critpath.stub.spans"), 1u);
  EXPECT_EQ(registry.histogram("critpath.transport.self_ms").count(), 1u);

  const std::string table = stage_table(report);
  EXPECT_NE(table.find("stub"), std::string::npos);
  EXPECT_NE(table.find("transport"), std::string::npos);
  EXPECT_NE(table.find("1 roots"), std::string::npos);
}

}  // namespace
}  // namespace mecdns::obs
