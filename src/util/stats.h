// Descriptive statistics used by the measurement harness.
//
// Figure 2 of the paper reports per-bar averages over the 8th..92nd
// percentile of at least 12 samples, with min/max whiskers; Summary exposes
// exactly those aggregates.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mecdns::util {

/// Aggregates of a sample set. All latency values are in milliseconds by
/// convention, but Summary itself is unit-agnostic.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Accumulates scalar samples and computes summaries on demand.
class SampleSet {
 public:
  SampleSet() = default;

  void add(double value) { values_.push_back(value); }
  void add_all(const std::vector<double>& values);
  void clear() { values_.clear(); }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Linear-interpolated percentile, p in [0, 100]. Empty set yields 0.
  double percentile(double p) const;

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Full summary of all samples.
  Summary summarize() const;

  /// Summary restricted to samples within [lo_pct, hi_pct] percentiles —
  /// the paper's "8th- to the 92th-percentile" trimmed bar, while min/max
  /// still report the untrimmed extremes (the error lines).
  Summary summarize_trimmed(double lo_pct, double hi_pct) const;

 private:
  std::vector<double> values_;
};

/// Counts categorical outcomes (e.g. which CIDR range answered a query) and
/// reports their share — the quantity plotted in Figure 3.
class FrequencyTable {
 public:
  void add(const std::string& key, std::size_t n = 1);
  std::size_t count(const std::string& key) const;
  std::size_t total() const { return total_; }
  /// Share of total in [0,1]; 0 when the table is empty.
  double share(const std::string& key) const;
  /// Keys sorted by descending count, ties broken lexicographically.
  std::vector<std::string> keys_by_count() const;

 private:
  std::vector<std::pair<std::string, std::size_t>> entries_;
  std::size_t total_ = 0;
};

}  // namespace mecdns::util
