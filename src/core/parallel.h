// Deterministic parallel campaign execution.
//
// Every experiment surface in this repo — the fig2/fig5 benches, the fault
// matrix, the ablation sweeps, core::MeasurementStudy — runs a grid of
// *independent* simulations: each (scenario × deployment × seed) job owns a
// private simnet::Simulator, Network, obs::Registry/TraceSink/TimeSeries
// and util::Rng, and the simulations never exchange state. That makes the
// grid embarrassingly parallel, provided two things hold:
//
//   1. Seeding is per-job, not positional. A job's RNG stream must be a
//      pure function of (campaign_seed, job_index), never of which jobs ran
//      before it. job_seed() derives it by SplitMix64-mixing the pair, so
//      adding, removing or reordering jobs cannot perturb any other job's
//      stream — and neither can running them on different threads.
//   2. Results land in fixed slots. Each job writes only its own slot;
//      merging and printing happen on the calling thread in job-index
//      order after every worker has joined. Output is therefore
//      byte-identical for any worker count, including 1.
//
// The runner is deliberately work-stealing-free: a single atomic ticket
// counter hands out job indices in order. Scheduling order can vary between
// runs, but nothing observable depends on it.
//
// Thread-safety contract for job bodies: construct the Simulator (and
// everything hanging off it) *inside* the job, on the worker thread — the
// simulator's log clock and the trace-token ambient context are
// thread_local, so concurrent simulations do not interfere. Process-global
// knobs (util::set_log_level, util::set_log_sink) must be configured before
// run() and left alone while workers are live.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mecdns::core {

/// SplitMix64 finalizer (Steele, Lea & Flood): a bijective avalanche mix.
std::uint64_t split_mix64(std::uint64_t x);

/// The RNG seed for job `job_index` of a campaign seeded with
/// `campaign_seed`. Pure function of its arguments — independent of
/// execution order, worker count, and every other job.
inline std::uint64_t job_seed(std::uint64_t campaign_seed,
                              std::uint64_t job_index) {
  return split_mix64(campaign_seed ^ job_index);
}

/// Maps a --workers flag value to an effective worker count: values >= 1
/// pass through, anything else (0, negative) becomes hardware_concurrency
/// (at least 1).
std::size_t resolve_workers(std::int64_t flag);

/// One job's result slot. A job that throws reports here instead of taking
/// the campaign down: `ok` is false, `error` carries the exception message
/// and `value` stays default-constructed. The campaign always runs every
/// job to completion regardless of individual failures.
template <typename Result>
struct JobOutcome {
  bool ok = false;
  std::string error;
  Result value{};
};

/// Runs `jobs` independent closures across a fixed pool of worker threads.
class ParallelCampaign {
 public:
  /// `workers` = 0 means hardware_concurrency. The count is capped at the
  /// job count at run() time; 1 runs everything inline on the caller.
  explicit ParallelCampaign(std::size_t workers = 0);

  std::size_t workers() const { return workers_; }

  /// Runs fn(job_index) for every index in [0, jobs), collecting results
  /// into a vector indexed by job. Blocks until every job finished.
  /// Exceptions from fn are captured per-slot (see JobOutcome).
  template <typename Result>
  std::vector<JobOutcome<Result>> run(
      std::size_t jobs, const std::function<Result(std::size_t)>& fn) const {
    std::vector<JobOutcome<Result>> slots(jobs);
    run_indexed(jobs, [&slots, &fn](std::size_t i) {
      try {
        slots[i].value = fn(i);
        slots[i].ok = true;
      } catch (const std::exception& e) {
        slots[i].error = e.what();
      } catch (...) {
        slots[i].error = "unknown exception";
      }
    });
    return slots;
  }

  /// Untyped variant: runs body(i) for every job index. The body must not
  /// throw (run() wraps bodies with the per-slot catch).
  void run_indexed(std::size_t jobs,
                   const std::function<void(std::size_t)>& body) const;

 private:
  std::size_t workers_;
};

}  // namespace mecdns::core
