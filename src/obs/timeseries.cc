#include "obs/timeseries.h"

#include <algorithm>

namespace mecdns::obs {

TimeSeries::Window& TimeSeries::window_for_index(std::int64_t index) {
  // Sim time is monotonic, so the common case is the last window (or a new
  // one past it); merge() is the only caller that lands in the middle.
  if (!windows_.empty() && windows_.back().index == index) {
    return windows_.back();
  }
  Window window;
  window.index = index;
  window.start = simnet::SimTime::nanos(index * window_.count_nanos());
  window.end = window.start + window_;
  if (windows_.empty() || windows_.back().index < index) {
    windows_.push_back(std::move(window));
    return windows_.back();
  }
  const auto it = std::lower_bound(
      windows_.begin(), windows_.end(), index,
      [](const Window& w, std::int64_t i) { return w.index < i; });
  if (it != windows_.end() && it->index == index) return *it;
  return *windows_.insert(it, std::move(window));
}

TimeSeries::Window& TimeSeries::current() {
  const std::int64_t index =
      window_.count_nanos() <= 0
          ? 0
          : now().count_nanos() / window_.count_nanos();
  return window_for_index(index);
}

void TimeSeries::annotate(std::string kind, std::string description) {
  annotations_.push_back(
      Annotation{now(), std::move(kind), std::move(description)});
}

const TimeSeries::Window* TimeSeries::window_at(simnet::SimTime t) const {
  if (window_.count_nanos() <= 0) return nullptr;
  const std::int64_t index = t.count_nanos() / window_.count_nanos();
  const auto it = std::lower_bound(
      windows_.begin(), windows_.end(), index,
      [](const Window& w, std::int64_t i) { return w.index < i; });
  if (it == windows_.end() || it->index != index) return nullptr;
  return &*it;
}

Registry TimeSeries::totals() const {
  Registry out;
  for (const auto& window : windows_) out.merge(window.metrics);
  return out;
}

bool TimeSeries::merge(const TimeSeries& other) {
  if (other.window_ != window_) return false;
  for (const auto& window : other.windows_) {
    window_for_index(window.index).metrics.merge(window.metrics);
  }
  for (const auto& annotation : other.annotations_) {
    annotations_.push_back(annotation);
  }
  std::stable_sort(annotations_.begin(), annotations_.end(),
                   [](const Annotation& a, const Annotation& b) {
                     return a.at < b.at;
                   });
  return true;
}

std::string TimeSeries::to_json() const {
  std::string out = "{\"window_ms\":";
  out += format_double(window_.to_millis());
  out += ",\"windows\":[";
  bool first = true;
  for (const auto& window : windows_) {
    if (!first) out += ',';
    first = false;
    out += "{\"index\":";
    out += std::to_string(window.index);
    out += ",\"start_ms\":";
    out += format_double(window.start.to_millis());
    out += ",\"end_ms\":";
    out += format_double(window.end.to_millis());
    out += ",\"metrics\":";
    out += window.metrics.to_json();
    out += '}';
  }
  out += "],\"annotations\":[";
  first = true;
  for (const auto& annotation : annotations_) {
    if (!first) out += ',';
    first = false;
    out += "{\"t_ms\":";
    out += format_double(annotation.at.to_millis());
    out += ",\"kind\":";
    append_json_string(out, annotation.kind);
    out += ",\"description\":";
    append_json_string(out, annotation.description);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace mecdns::obs
