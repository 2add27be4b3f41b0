#include "obs/analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace mecdns::obs {

std::vector<SpanInfo> snapshot(const TraceSink& sink) {
  std::vector<SpanInfo> out;
  out.reserve(sink.size());
  for (const auto& span : sink.spans()) {
    SpanInfo info;
    info.id = span.id;
    info.parent = span.parent;
    info.component = span.component;
    info.name = span.name;
    info.start_ms = span.start.to_millis();
    info.dur_ms = span.duration().to_millis();
    info.finished = span.finished;
    out.push_back(std::move(info));
  }
  return out;
}

CriticalPathReport critical_path(const std::vector<SpanInfo>& spans,
                                 std::size_t slowest_n) {
  CriticalPathReport report;

  // Sum of direct children's durations per parent, then self = dur - that.
  std::unordered_map<SpanId, double> child_ms;
  child_ms.reserve(spans.size());
  for (const auto& span : spans) {
    if (!span.finished) continue;
    if (span.parent != 0) child_ms[span.parent] += span.dur_ms;
  }

  std::unordered_map<std::string, std::size_t> stage_index;
  for (const auto& span : spans) {
    if (!span.finished) {
      ++report.unfinished;
      continue;
    }
    const auto [it, inserted] =
        stage_index.try_emplace(span.component, report.stages.size());
    if (inserted) {
      StageStat stat;
      stat.stage = span.component;
      report.stages.push_back(std::move(stat));
    }
    StageStat& stat = report.stages[it->second];
    const auto child_it = child_ms.find(span.id);
    const double children = child_it == child_ms.end() ? 0.0
                                                       : child_it->second;
    // Clamp: overlapping/async children can cover more wall time than the
    // parent; negative self time is attribution noise, not signal.
    const double self = std::max(0.0, span.dur_ms - children);
    ++stat.spans;
    stat.total_self_ms += self;
    stat.total_child_ms += span.dur_ms - self;
    stat.self_ms.add(self);

    if (span.parent == 0) {
      ++report.roots;
      report.total_root_ms += span.dur_ms;
    }
  }

  // Slowest roots, by descending duration then ascending id.
  std::vector<CriticalPathReport::Exemplar> roots;
  for (const auto& span : spans) {
    if (span.parent != 0 || !span.finished) continue;
    roots.push_back(
        CriticalPathReport::Exemplar{span.id, span.name, span.dur_ms});
  }
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.root < b.root;
            });
  if (roots.size() > slowest_n) roots.resize(slowest_n);
  report.slowest = std::move(roots);
  return report;
}

void export_critical_path(const CriticalPathReport& report,
                          Registry& registry) {
  registry.add("critpath.roots", report.roots);
  registry.add("critpath.unfinished", report.unfinished);
  for (const auto& stage : report.stages) {
    registry.add("critpath." + stage.stage + ".spans", stage.spans);
    registry.histogram("critpath." + stage.stage + ".self_ms")
        .merge(stage.self_ms);
  }
}

std::string stage_table(const CriticalPathReport& report) {
  double total_self = 0.0;
  for (const auto& stage : report.stages) total_self += stage.total_self_ms;

  std::vector<const StageStat*> order;
  for (const auto& stage : report.stages) order.push_back(&stage);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->total_self_ms != b->total_self_ms) {
      return a->total_self_ms > b->total_self_ms;
    }
    return a->stage < b->stage;
  });

  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s %8s %12s %8s %10s %10s %10s\n",
                "stage", "spans", "self(ms)", "share", "mean", "p50", "p99");
  out += line;
  for (const auto* stage : order) {
    const double share =
        total_self > 0.0 ? 100.0 * stage->total_self_ms / total_self : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-18s %8llu %12.3f %7.1f%% %10.3f %10.3f %10.3f\n",
                  stage->stage.c_str(),
                  static_cast<unsigned long long>(stage->spans),
                  stage->total_self_ms, share, stage->self_ms.mean(),
                  stage->self_ms.percentile(50.0),
                  stage->self_ms.percentile(99.0));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%zu roots, %.3f ms total root time, %zu unfinished spans\n",
                report.roots, report.total_root_ms, report.unfinished);
  out += line;
  if (!report.slowest.empty()) {
    out += "slowest roots (trace ids for Perfetto):\n";
    for (const auto& exemplar : report.slowest) {
      std::snprintf(line, sizeof(line), "  #%llu %-48s %10.3f ms\n",
                    static_cast<unsigned long long>(exemplar.root),
                    exemplar.name.c_str(), exemplar.total_ms);
      out += line;
    }
  }
  return out;
}

}  // namespace mecdns::obs
