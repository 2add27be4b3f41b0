// Sim-time-windowed metrics: the time dimension the flat Registry lacks.
//
// A TimeSeries buckets counters, gauges and latency histograms into fixed
// sim-time windows (default 500 ms), so a run's telemetry answers *when*
// questions: did the fault window blow the latency budget, how long did
// the error budget burn, when did recovery complete. Chaos injections (and
// any other point event) attach as annotations carrying their exact sim
// timestamp, so fault markers align with the windows they perturbed.
//
// Windows are stored sparsely in index order and created on first write —
// a quiet series costs nothing. Each window owns a full Registry, so every
// per-window aggregate inherits the registry's exact merge algebra, and
// two series from different runs (or shards) merge window-by-window.
// Export is byte-stable JSON with round-trippable doubles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "simnet/simulator.h"
#include "simnet/time.h"

namespace mecdns::obs {

class TimeSeries {
 public:
  struct Window {
    std::int64_t index = 0;  ///< floor(sim_time / window_size)
    simnet::SimTime start;
    simnet::SimTime end;
    Registry metrics;
  };

  /// A point event on the series (chaos injection, phase change).
  struct Annotation {
    simnet::SimTime at;
    std::string kind;
    std::string description;
  };

  /// `sim` provides timestamps and must outlive the series.
  explicit TimeSeries(const simnet::Simulator& sim,
                      simnet::SimTime window = simnet::SimTime::millis(500))
      : sim_(&sim), window_(window) {}

  simnet::SimTime now() const { return sim_->now(); }

  // --- recording (timestamped with the current sim time) -----------------
  void add(const std::string& name, std::uint64_t delta = 1) {
    current().metrics.add(name, delta);
  }
  void set_gauge(const std::string& name, double value) {
    current().metrics.set_gauge(name, value);
  }
  void set_gauge_max(const std::string& name, double value) {
    current().metrics.set_gauge_max(name, value);
  }
  void observe(const std::string& name, double value_ms) {
    current().metrics.histogram(name).add(value_ms);
  }
  void annotate(std::string kind, std::string description);

  // --- inspection --------------------------------------------------------
  const std::vector<Window>& windows() const { return windows_; }
  const std::vector<Annotation>& annotations() const { return annotations_; }
  /// Window holding sim time `t`, or nullptr if nothing was recorded there.
  const Window* window_at(simnet::SimTime t) const;
  bool empty() const { return windows_.empty() && annotations_.empty(); }

  /// Collapses every window into one Registry (whole-run totals).
  Registry totals() const;

  /// Merges `other` window-by-window (indices must align, i.e. both series
  /// use the same window size); annotations are interleaved in time order.
  /// Returns false (and merges nothing) on a window-size mismatch.
  bool merge(const TimeSeries& other);

  /// Byte-stable JSON: {"window_ms":..., "windows":[{"index":...,
  /// "start_ms":..., "end_ms":..., "metrics":{...}}], "annotations":[...]}.
  std::string to_json() const;
  /// Writes to_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Window& current();
  Window& window_for_index(std::int64_t index);

  const simnet::Simulator* sim_;
  simnet::SimTime window_;
  std::vector<Window> windows_;  ///< sorted by index, sparse
  std::vector<Annotation> annotations_;
};

}  // namespace mecdns::obs
