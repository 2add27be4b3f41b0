// Per-query span tracing for the MEC-CDN resolution path.
//
// The paper's whole argument is a latency *breakdown* — where inside the
// DNS→C-DNS→cache chain each millisecond goes. A TraceSink collects
// sim-time-stamped spans emitted along a request's path: the stub's lookup
// is the root, each transport RPC, DNS-server stage, plugin, C-DNS route
// and cache fetch is a child. Context flows across asynchronous boundaries
// via simnet::TraceToken, which the Simulator captures per scheduled event,
// so components never thread an explicit context parameter.
//
// Zero overhead when disabled: with no sink attached the ambient token is
// null, begin_span() returns an inert SpanRef, and every tag()/end() call
// is a single branch.
//
// The collected trace exports to the Chrome trace-event JSON format, which
// chrome://tracing and https://ui.perfetto.dev load directly: each lookup
// becomes one track (tid = root span id) with nested slices per stage.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simnet/context.h"
#include "simnet/simulator.h"
#include "simnet/time.h"

namespace mecdns::obs {

using SpanId = std::uint64_t;

struct SpanTag {
  std::string key;
  std::string value;
};

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = root
  std::string component;
  std::string name;
  simnet::SimTime start;
  simnet::SimTime end;
  bool finished = false;
  std::vector<SpanTag> tags;

  simnet::SimTime duration() const { return end - start; }
  const std::string* tag(const std::string& key) const;
};

/// Collects the spans of one run. Span ids are 1-based and monotonically
/// increasing; without sampling they are indices into the record vector, so
/// lookups are O(1) and allocation is a vector append.
///
/// With sampling enabled the sink stays bounded on million-query runs:
/// every root is recorded provisionally, and when it ends the sink keeps it
/// only if (a) it was head-sampled in — a seeded hash of the root's name
/// and ordinal, deterministic across runs — or (b) it ran slower than the
/// tail threshold, or (c) a component forced it kept (failed lookups).
/// Dropped subtrees release their slots for reuse, so memory is
/// proportional to kept + in-flight spans, not to total traffic. At
/// head_rate 1.0 nothing is ever dropped and the recorded spans are
/// byte-identical to an unsampled sink.
class TraceSink {
 public:
  struct SamplingConfig {
    /// Probability a root is head-sampled in; >= 1.0 keeps everything.
    double head_rate = 1.0;
    /// Seed for the head-sampling hash: the same seed selects the same
    /// roots on every run; different seeds select independent subsets.
    std::uint64_t seed = 0;
    /// Tail criterion: roots at least this slow are always kept.
    simnet::SimTime keep_slower_than = simnet::SimTime::millis(20);
  };

  /// `sim` provides the timestamps; it must outlive the sink.
  explicit TraceSink(const simnet::Simulator& sim) : sim_(&sim) {}

  /// Enables sampling. Must be called before the first span is recorded.
  void set_sampling(const SamplingConfig& config) {
    sampling_enabled_ = true;
    sampling_ = config;
  }

  SpanId begin(SpanId parent, std::string component, std::string name);
  void end(SpanId id);
  void add_tag(SpanId id, std::string key, std::string value);
  /// Tail override: marks `id`'s root as always-keep (failed lookups call
  /// this so errors survive any sampling rate).
  void force_keep(SpanId id);

  simnet::SimTime now() const { return sim_->now(); }

  /// Raw record storage. With sampling enabled, reclaimed slots show up as
  /// tombstones with id == 0 — iterate with a skip, as the accessors below
  /// do.
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Number of live (kept or in-flight) spans.
  std::size_t size() const { return spans_.size() - free_.size(); }
  /// Live spans that were never end()ed — a dropped-context bug signal
  /// after a completed run.
  std::size_t unfinished() const;
  std::size_t roots_seen() const { return roots_seen_; }
  std::size_t roots_dropped() const { return roots_dropped_; }
  const SpanRecord* find(SpanId id) const;

  /// All spans whose component matches (insertion order).
  std::vector<const SpanRecord*> by_component(
      const std::string& component) const;
  std::vector<const SpanRecord*> children_of(SpanId parent) const;
  /// Follows parent links to the root ancestor (a root returns itself).
  SpanId root_of(SpanId id) const;
  /// Nesting depth; a root span has depth 0.
  std::size_t depth(SpanId id) const;
  /// Deepest nesting level in the sink, +1 (i.e. number of span levels).
  std::size_t max_depth() const;

  /// Chrome trace-event JSON ("X" complete events, ts/dur in microseconds,
  /// one track per root span). Loadable in chrome://tracing and Perfetto.
  std::string to_chrome_trace() const;
  /// Writes to_chrome_trace() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  void clear();

 private:
  /// One provisionally-recorded root awaiting its keep/drop verdict.
  struct PendingRoot {
    bool head_keep = false;
    bool force_keep = false;
    std::vector<SpanId> subtree;  ///< every span id under this root
  };

  SpanRecord* find_mutable(SpanId id);
  /// Seeded hash decision for root number `ordinal` named `name`.
  bool head_sampled(const std::string& name, std::size_t ordinal) const;
  /// Applies the keep/drop verdict to a finished provisional root.
  void finish_root(const SpanRecord& root);

  const simnet::Simulator* sim_;
  std::vector<SpanRecord> spans_;
  bool sampling_enabled_ = false;
  SamplingConfig sampling_;
  SpanId next_id_ = 1;
  std::vector<std::size_t> free_;                  ///< reclaimed slots
  std::unordered_map<SpanId, std::size_t> slot_of_;  ///< sampling mode only
  std::unordered_map<SpanId, PendingRoot> pending_;
  std::size_t roots_seen_ = 0;
  std::size_t roots_dropped_ = 0;
};

/// Cheap copyable handle to a span in a sink; inert when default-built.
class SpanRef {
 public:
  SpanRef() = default;
  SpanRef(TraceSink* sink, SpanId id) : sink_(sink), id_(id) {}

  bool active() const { return sink_ != nullptr; }
  TraceSink* sink() const { return sink_; }
  SpanId id() const { return id_; }

  void end() const {
    if (sink_ != nullptr) sink_->end(id_);
  }
  /// Views, so an inert span's tag builds no string.
  void tag(std::string_view key, std::string_view value) const {
    if (sink_ != nullptr) {
      sink_->add_tag(id_, std::string(key), std::string(value));
    }
  }
  /// Marks this span's root as always-keep under sampling (tail-based
  /// retention for failures); no-op when inert or sampling is off.
  void keep() const {
    if (sink_ != nullptr) sink_->force_keep(id_);
  }

  simnet::TraceToken token() const {
    return simnet::TraceToken{sink_, id_};
  }

 private:
  TraceSink* sink_ = nullptr;
  SpanId id_ = 0;
};

/// The span the current event is running under (inert if untraced).
SpanRef ambient_span();

/// Starts a child of the ambient span. Inert when nothing is ambient —
/// component code calls this unconditionally; the disabled cost is one
/// thread-local read and a null check.
SpanRef begin_span(const std::string& component, const std::string& name);

/// Starts a root span in `sink` (nullptr → falls back to a child of the
/// ambient span, or inert). Entry points (the stub resolver) use this.
SpanRef begin_root_span(TraceSink* sink, const std::string& component,
                        const std::string& name);

/// RAII: makes `span` ambient for the current scope (no-op when inert), so
/// events scheduled inside the scope — packet deliveries, processing
/// delays — inherit it.
class AmbientSpanGuard {
 public:
  explicit AmbientSpanGuard(const SpanRef& span)
      : engaged_(span.active()), saved_(simnet::current_trace_token()) {
    if (engaged_) simnet::set_current_trace_token(span.token());
  }
  ~AmbientSpanGuard() {
    if (engaged_) simnet::set_current_trace_token(saved_);
  }

  AmbientSpanGuard(const AmbientSpanGuard&) = delete;
  AmbientSpanGuard& operator=(const AmbientSpanGuard&) = delete;

 private:
  bool engaged_;
  simnet::TraceToken saved_;
};

}  // namespace mecdns::obs
