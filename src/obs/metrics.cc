#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace mecdns::obs {

std::string format_double(double value) {
  // Shortest representation that round-trips exactly, independent of the
  // process locale (to_chars never writes a locale decimal separator).
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";  // cannot happen for finite doubles
  return std::string(buf, ptr);
}

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {
// Value at the lower edge of log-linear slot `slot` (0-based over the
// non-underflow, non-overflow range).
double edge_value(std::size_t slot) {
  const int octave = LatencyHistogram::kMinExp +
                     static_cast<int>(slot / LatencyHistogram::kSubBuckets);
  const int sub = static_cast<int>(slot % LatencyHistogram::kSubBuckets);
  const double base = std::ldexp(1.0, octave);
  return base * (1.0 + static_cast<double>(sub) /
                           LatencyHistogram::kSubBuckets);
}

constexpr std::size_t kLogLinearSlots =
    static_cast<std::size_t>(LatencyHistogram::kMaxExp -
                             LatencyHistogram::kMinExp) *
    LatencyHistogram::kSubBuckets;
}  // namespace

std::size_t LatencyHistogram::index_for(double value_ms) {
  if (!(value_ms >= std::ldexp(1.0, kMinExp))) return 0;  // underflow / NaN
  if (value_ms >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;  // overflow
  int exp = 0;
  const double frac = std::frexp(value_ms, &exp);  // frac in [0.5, 1)
  const int octave = exp - 1;  // value in [2^octave, 2^(octave+1))
  // Position within the octave: frac*2 is in [1, 2).
  const int sub = static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets);
  const std::size_t slot =
      static_cast<std::size_t>(octave - kMinExp) * kSubBuckets +
      static_cast<std::size_t>(std::min(sub, kSubBuckets - 1));
  return 1 + std::min(slot, kLogLinearSlots - 1);
}

void LatencyHistogram::add(double value_ms, std::uint64_t n) {
  if (n == 0) return;
  counts_[index_for(value_ms)] += n;
  if (count_ == 0) {
    min_ = value_ms;
    max_ = value_ms;
  } else {
    min_ = std::min(min_, value_ms);
    max_ = std::max(max_, value_ms);
  }
  count_ += n;
  sum_ += value_ms * static_cast<double>(n);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyHistogram::bucket_low(std::size_t i) const {
  if (i == 0) return 0.0;
  if (i == kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  return edge_value(i - 1);
}

double LatencyHistogram::bucket_high(std::size_t i) const {
  if (i == 0) return std::ldexp(1.0, kMinExp);
  if (i == kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  return i < kLogLinearSlots ? edge_value(i) : std::ldexp(1.0, kMaxExp);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t next = seen + counts_[i];
    if (static_cast<double>(next) >= rank) {
      const double lo = std::max(bucket_low(i), min_);
      // The overflow bucket is unbounded above; its only honest upper
      // edge is the largest value actually observed.
      const double hi = i == kBuckets - 1 ? max_
                                          : std::min(bucket_high(i), max_);
      const double within =
          (rank - static_cast<double>(seen)) /
          static_cast<double>(counts_[i]);
      return std::clamp(lo + (hi - lo) * std::clamp(within, 0.0, 1.0), min_,
                        max_);
    }
    seen = next;
  }
  return max_;
}

bool LatencyHistogram::operator==(const LatencyHistogram& other) const {
  return counts_ == other.counts_ && count_ == other.count_ &&
         min_ == other.min_ && max_ == other.max_;
}

std::uint64_t& Registry::counter(const std::string& name) {
  return counters_[name];
}

void Registry::add(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double& Registry::gauge(const std::string& name) { return gauges_[name]; }

void Registry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void Registry::set_gauge_max(const std::string& name, double value) {
  auto [it, inserted] = gauges_.try_emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

double Registry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

LatencyHistogram& Registry::histogram(const std::string& name) {
  return histograms_[name];
}

const LatencyHistogram* Registry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) set_gauge_max(name, value);
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

void Registry::merge_prefixed(const std::string& prefix,
                              const Registry& other) {
  for (const auto& [name, value] : other.counters_) {
    add(prefix + "." + name, value);
  }
  for (const auto& [name, value] : other.gauges_) {
    set_gauge(prefix + "." + name, value);
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[prefix + "." + name].merge(hist);
  }
}

std::string Registry::to_text() const {
  std::string out;
  if (!counters_.empty()) {
    out += "# counters\n";
    for (const auto& [name, value] : counters_) {
      out += name;
      out += ' ';
      out += std::to_string(value);
      out += '\n';
    }
  }
  if (!gauges_.empty()) {
    out += "# gauges\n";
    for (const auto& [name, value] : gauges_) {
      out += name;
      out += ' ';
      out += format_double(value);
      out += '\n';
    }
  }
  if (!histograms_.empty()) {
    out += "# histograms (ms)\n";
    for (const auto& [name, hist] : histograms_) {
      out += name;
      out += " count=";
      out += std::to_string(hist.count());
      out += " mean=";
      out += format_double(hist.mean());
      out += " min=";
      out += format_double(hist.min());
      out += " p50=";
      out += format_double(hist.percentile(50.0));
      out += " p95=";
      out += format_double(hist.percentile(95.0));
      out += " p99=";
      out += format_double(hist.percentile(99.0));
      out += " max=";
      out += format_double(hist.max());
      out += '\n';
    }
  }
  return out;
}

std::string Registry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += format_double(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    out += std::to_string(hist.count());
    out += ",\"mean\":";
    out += format_double(hist.mean());
    out += ",\"min\":";
    out += format_double(hist.min());
    out += ",\"p50\":";
    out += format_double(hist.percentile(50.0));
    out += ",\"p95\":";
    out += format_double(hist.percentile(95.0));
    out += ",\"p99\":";
    out += format_double(hist.percentile(99.0));
    out += ",\"max\":";
    out += format_double(hist.max());
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < hist.bucket_count(); ++i) {
      if (hist.bucket(i) == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"le\":";
      out += format_double(hist.bucket_high(i));
      out += ",\"n\":";
      out += std::to_string(hist.bucket(i));
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

bool Registry::write_json(const std::string& path) const {
  return write_text_file(path, to_json());
}

}  // namespace mecdns::obs
