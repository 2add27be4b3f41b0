// Metrics registry: counters, gauges and log-linear latency histograms.
//
// A passive, deterministic container components export their counters into
// (and hot paths record latencies into). A LatencyHistogram has a *fixed*
// log-linear bucket layout — every instance shares the same bucket edges —
// which makes histograms from different runs, shards or components
// mergeable with exact associativity on counts. That is the property a
// fleet of MEC sites needs to aggregate latency distributions without
// shipping raw samples.
//
// Dump formats: a human-readable text table and a JSON document (the
// testbed's --metrics-out). Iteration is name-sorted (std::map) so dumps
// are byte-stable across runs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace mecdns::obs {

/// Locale-independent, round-trippable double formatting (std::to_chars
/// shortest form, the %.17g idea without the trailing noise): parsing the
/// result back yields bit-identical doubles, so report diffs never flag
/// formatting noise. Used by every JSON/text emitter in obs/.
std::string format_double(double value);

/// Appends `text` to `out` as a JSON string literal (quoted + escaped).
void append_json_string(std::string& out, const std::string& text);

/// Writes `body` to `path`, returning false on any I/O failure. Benches
/// that serialize artifacts inside parallel campaign jobs use this to
/// defer the actual write to the (single-threaded) merge phase.
bool write_text_file(const std::string& path, const std::string& body);

/// Log-linear histogram over positive values (milliseconds by convention).
/// Buckets: kSubBuckets linear sub-buckets per power of two, spanning
/// 2^kMinExp .. 2^kMaxExp ms (≈1 µs .. ≈17 min), plus underflow/overflow.
class LatencyHistogram {
 public:
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 20;
  static constexpr int kSubBuckets = 8;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void add(double value_ms, std::uint64_t n = 1);
  /// Adds every bucket of `other` into this histogram. Because the layout
  /// is fixed, (a.merge(b)).merge(c) == a.merge(b.merge(c)) exactly on
  /// counts, count, min and max.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Bucket-interpolated percentile, p in [0,100]; clamped to [min,max].
  double percentile(double p) const;

  std::size_t bucket_count() const { return kBuckets; }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  /// Lower/upper value bound of bucket `i` (underflow: [0, lowest edge);
  /// overflow: [highest edge, inf → reported as the edge).
  double bucket_low(std::size_t i) const;
  double bucket_high(std::size_t i) const;

  bool operator==(const LatencyHistogram& other) const;

 private:
  static std::size_t index_for(double value_ms);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named counters (monotonic uint64), gauges (double, last-write or
/// high-water) and latency histograms.
class Registry {
 public:
  /// Returns the counter, creating it at 0.
  std::uint64_t& counter(const std::string& name);
  void add(const std::string& name, std::uint64_t delta = 1);
  std::uint64_t counter_value(const std::string& name) const;

  double& gauge(const std::string& name);
  void set_gauge(const std::string& name, double value);
  /// Keeps the maximum of the existing and new value (high-water mark).
  void set_gauge_max(const std::string& name, double value);
  double gauge_value(const std::string& name) const;

  LatencyHistogram& histogram(const std::string& name);
  const LatencyHistogram* find_histogram(const std::string& name) const;

  /// Adds counters, max-combines gauges, merges histograms.
  void merge(const Registry& other);
  /// Copies `other` in with every name prefixed by "<prefix>.", so one
  /// registry holds several runs that share metric names side by side.
  void merge_prefixed(const std::string& prefix, const Registry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  std::string to_text() const;
  std::string to_json() const;
  bool write_json(const std::string& path) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace mecdns::obs
