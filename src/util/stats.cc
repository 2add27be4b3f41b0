#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace mecdns::util {

void SampleSet::add_all(const std::vector<double>& values) {
  values_.insert(values_.end(), values.begin(), values.end());
}

double SampleSet::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double SampleSet::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double SampleSet::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (const double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double SampleSet::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double SampleSet::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

Summary SampleSet::summarize() const {
  Summary s;
  s.count = values_.size();
  s.mean = mean();
  s.stddev = stddev();
  s.min = min();
  s.max = max();
  s.p50 = percentile(50.0);
  s.p90 = percentile(90.0);
  s.p99 = percentile(99.0);
  return s;
}

Summary SampleSet::summarize_trimmed(double lo_pct, double hi_pct) const {
  const double lo = percentile(lo_pct);
  const double hi = percentile(hi_pct);
  SampleSet trimmed;
  for (const double v : values_) {
    if (v >= lo && v <= hi) trimmed.add(v);
  }
  Summary s = trimmed.summarize();
  // The paper's error lines mark the untrimmed extremes.
  s.min = min();
  s.max = max();
  return s;
}

void FrequencyTable::add(const std::string& key, std::size_t n) {
  total_ += n;
  for (auto& [k, c] : entries_) {
    if (k == key) {
      c += n;
      return;
    }
  }
  entries_.emplace_back(key, n);
}

std::size_t FrequencyTable::count(const std::string& key) const {
  for (const auto& [k, c] : entries_) {
    if (k == key) return c;
  }
  return 0;
}

double FrequencyTable::share(const std::string& key) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(key)) / static_cast<double>(total_);
}

std::vector<std::string> FrequencyTable::keys_by_count() const {
  std::vector<std::pair<std::string, std::size_t>> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::string> keys;
  keys.reserve(sorted.size());
  for (const auto& [k, c] : sorted) keys.push_back(k);
  return keys;
}

}  // namespace mecdns::util
