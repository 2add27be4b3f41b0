#include "obs/trace.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace mecdns::obs {

const std::string* SpanRecord::tag(const std::string& key) const {
  for (const auto& t : tags) {
    if (t.key == key) return &t.value;
  }
  return nullptr;
}

SpanId TraceSink::begin(SpanId parent, std::string component,
                        std::string name) {
  SpanRecord& record = spans_.emplace_back();
  record.id = spans_.size();
  record.parent = parent;
  record.component = std::move(component);
  record.name = std::move(name);
  record.start = now();
  record.end = record.start;
  return record.id;
}

void TraceSink::end(SpanId id) {
  SpanRecord* record = find_mutable(id);
  if (record == nullptr) return;
  record->end = now();
  record->finished = true;
}

void TraceSink::add_tag(SpanId id, std::string key, std::string value) {
  SpanRecord* record = find_mutable(id);
  if (record == nullptr) return;
  record->tags.push_back(SpanTag{std::move(key), std::move(value)});
}

std::size_t TraceSink::unfinished() const {
  std::size_t n = 0;
  for (const auto& span : spans_) {
    if (!span.finished) ++n;
  }
  return n;
}

const SpanRecord* TraceSink::find(SpanId id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

SpanRecord* TraceSink::find_mutable(SpanId id) {
  return const_cast<SpanRecord*>(
      static_cast<const TraceSink*>(this)->find(id));
}

std::vector<const SpanRecord*> TraceSink::by_component(
    const std::string& component) const {
  std::vector<const SpanRecord*> out;
  for (const auto& span : spans_) {
    if (span.component == component) out.push_back(&span);
  }
  return out;
}

std::vector<const SpanRecord*> TraceSink::children_of(SpanId parent) const {
  std::vector<const SpanRecord*> out;
  for (const auto& span : spans_) {
    if (span.parent == parent) out.push_back(&span);
  }
  return out;
}

SpanId TraceSink::root_of(SpanId id) const {
  const SpanRecord* span = find(id);
  while (span != nullptr && span->parent != 0) {
    span = find(span->parent);
  }
  return span == nullptr ? 0 : span->id;
}

std::size_t TraceSink::depth(SpanId id) const {
  std::size_t d = 0;
  const SpanRecord* span = find(id);
  while (span != nullptr && span->parent != 0) {
    span = find(span->parent);
    ++d;
  }
  return d;
}

std::size_t TraceSink::max_depth() const {
  std::size_t deepest = 0;
  for (const auto& span : spans_) {
    const std::size_t d = depth(span.id) + 1;
    if (d > deepest) deepest = d;
  }
  return deepest;
}

namespace {
void append_micros(std::string& out, simnet::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t.to_micros());
  out += buf;
}
}  // namespace

std::string TraceSink::to_chrome_trace() const {
  std::string out;
  out.reserve(256 + spans_.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& span : spans_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, span.name);
    out += ",\"cat\":";
    append_json_string(out, span.component);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(root_of(span.id));
    out += ",\"ts\":";
    append_micros(out, span.start);
    out += ",\"dur\":";
    append_micros(out, span.finished ? span.duration()
                                     : simnet::SimTime::zero());
    out += ",\"args\":{\"span\":";
    out += std::to_string(span.id);
    out += ",\"parent\":";
    out += std::to_string(span.parent);
    if (!span.finished) out += ",\"unfinished\":true";
    for (const auto& tag : span.tags) {
      out += ',';
      append_json_string(out, tag.key);
      out += ':';
      append_json_string(out, tag.value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

SpanRef ambient_span() {
  const simnet::TraceToken token = simnet::current_trace_token();
  if (!token.active()) return SpanRef{};
  return SpanRef{static_cast<TraceSink*>(token.sink), token.span};
}

SpanRef begin_span(const std::string& component, const std::string& name) {
  const simnet::TraceToken token = simnet::current_trace_token();
  if (!token.active()) return SpanRef{};
  auto* sink = static_cast<TraceSink*>(token.sink);
  return SpanRef{sink, sink->begin(token.span, component, name)};
}

SpanRef begin_root_span(TraceSink* sink, const std::string& component,
                        const std::string& name) {
  if (sink == nullptr) return begin_span(component, name);
  return SpanRef{sink, sink->begin(0, component, name)};
}

}  // namespace mecdns::obs
