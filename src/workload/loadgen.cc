#include "workload/loadgen.h"

#include <cmath>

namespace mecdns::workload {

namespace {

/// SplitMix64 step: advances `state` and returns the mixed output. The same
/// finalizer core/parallel.h uses for job seeds, so per-UE streams inherit
/// its avalanche quality with zero stored state beyond the counter.
std::uint64_t split_mix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from one stream step.
double uniform01(std::uint64_t& state) {
  return static_cast<double>(split_mix64_next(state) >> 11) * 0x1.0p-53;
}

}  // namespace

LoadGenerator::LoadGenerator(simnet::Simulator& sim, Options options,
                             Issue issue)
    : sim_(sim), options_(options), issue_(std::move(issue)) {
  rng_.reserve(options_.ues);
  for (std::uint32_t ue = 0; ue < options_.ues; ++ue) {
    // Decorrelate neighbouring UEs: the stream position starts at the mixed
    // (seed, ue) pair rather than at small consecutive integers.
    std::uint64_t s = options_.seed ^ (0x9e3779b97f4a7c15ULL * (ue + 1));
    split_mix64_next(s);
    rng_.push_back(s);
  }
}

simnet::SimTime LoadGenerator::next_gap(std::uint32_t ue,
                                        double mean_seconds) {
  // Exponential via inverse CDF on 1-u (u in [0,1) keeps the log argument
  // in (0,1], so the gap is finite and non-negative).
  const double u = uniform01(rng_[ue]);
  const double gap = -mean_seconds * std::log(1.0 - u);
  return simnet::SimTime::seconds(gap);
}

void LoadGenerator::start() {
  const std::int64_t now = sim_.now().count_nanos();
  window_end_nanos_ = now + options_.duration.count_nanos();
  if (options_.rate_hz <= 0.0 || options_.ues == 0) return;
  const double mean_gap_s = 1.0 / options_.rate_hz;
  // Expect ues * P(first gap < duration) first arrivals in the window.
  const double in_window =
      -std::expm1(-options_.rate_hz * options_.duration.to_seconds());
  ArrivalCalendar<Arrival>::Seed first;
  first.reserve(static_cast<std::size_t>(options_.ues * in_window * 1.01) + 64);
  for (std::uint32_t ue = 0; ue < options_.ues; ++ue) {
    const std::int64_t at = now + next_gap(ue, mean_gap_s).count_nanos();
    if (at < window_end_nanos_) first.push_back(Arrival{at, ue});
  }
  pending_.load(std::move(first), now, window_end_nanos_);
  arm();
}

LoadGenerator::~LoadGenerator() { sim_.cancel(armed_); }

void LoadGenerator::complete(std::uint32_t ue) {
  ++completed_;
  if (!options_.closed_loop) return;
  const std::int64_t at =
      sim_.now().count_nanos() +
      next_gap(ue, options_.mean_think.to_seconds()).count_nanos();
  if (at >= window_end_nanos_) return;
  // The armed pump is due at the earliest pending arrival; only an
  // arrival ahead of all of them supersedes it.
  const bool earliest = pending_.empty() || at < pending_.top().at_nanos;
  pending_.push(Arrival{at, ue});
  if (earliest) arm();
}

void LoadGenerator::arm() {
  sim_.cancel(armed_);  // a no-op once it has fired, or while it runs
  if (pending_.empty()) return;
  const auto [top, ue] = pending_.top();
  // The next pump draws from this UE's stream: start fetching it now, so
  // the miss overlaps the events that run before then.
  __builtin_prefetch(&rng_[ue]);
  armed_ = sim_.schedule_at(simnet::SimTime::nanos(top), [this] { pump(); });
}

void LoadGenerator::pump() {
  const std::int64_t now = sim_.now().count_nanos();
  const double mean_gap_s =
      options_.rate_hz > 0.0 ? 1.0 / options_.rate_hz : 0.0;
  while (!pending_.empty() && pending_.top().at_nanos <= now) {
    const auto [at, ue] = pending_.pop();
    ++issued_;
    issue_(ue);
    if (!options_.closed_loop) {
      const std::int64_t next = at + next_gap(ue, mean_gap_s).count_nanos();
      if (next < window_end_nanos_) pending_.push(Arrival{next, ue});
    }
  }
  arm();
}

}  // namespace mecdns::workload
