// Million-UE load generator: open- and closed-loop arrival processes over
// compact per-UE state.
//
// The paper's measurements run 32 dig-style queries per scenario; serving a
// dense edge population means sustaining load from 10^5–10^6 UEs, which no
// per-UE object graph survives. This generator keeps exactly 8 bytes of
// state per UE — a SplitMix64 stream position, stored struct-of-arrays —
// plus an ArrivalCalendar of pending arrivals (16 bytes each), and drives
// any query-issuing callback:
//
//   * open loop: each UE emits queries as an independent Poisson process of
//     `rate_hz`; arrivals are scheduled regardless of completions (the
//     arrival rate is the experiment's independent variable — the right
//     model for a regression gate, where a slower system must not be
//     allowed to lower its own offered load).
//   * closed loop: each UE waits for its previous query to complete, thinks
//     for an exponential `mean_think`, then issues the next (a user tapping
//     through an app).
//
// Scheduling discipline: the generator keeps ONE simulator event armed for
// the earliest pending arrival (a closed-loop completion that lands ahead of
// it cancels and re-arms it) and batch-issues everything due at that
// instant, so the simulator's queue depth stays O(in-flight queries), not
// O(UEs). Equal times break on UE index; per-UE randomness is a pure function
// of (seed, ue), so runs are bit-identical regardless of how the campaign
// parallelizes around them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "simnet/simulator.h"
#include "simnet/time.h"
#include "workload/arrival_calendar.h"

namespace mecdns::workload {

class LoadGenerator {
 public:
  struct Options {
    std::uint32_t ues = 1000;
    /// Per-UE mean arrival rate (open loop), queries per simulated second.
    double rate_hz = 1.0;
    /// Arrivals are generated in [start, start + duration).
    simnet::SimTime duration = simnet::SimTime::seconds(10);
    bool closed_loop = false;
    /// Closed loop: exponential think time between completion and the next
    /// query. The first query of each UE still arrives Poisson(rate_hz).
    simnet::SimTime mean_think = simnet::SimTime::seconds(1);
    std::uint64_t seed = 1;
  };

  /// Issues one query for `ue`. Closed-loop issuers must eventually call
  /// complete(ue) (open-loop issuers may skip it).
  using Issue = std::function<void(std::uint32_t ue)>;

  LoadGenerator(simnet::Simulator& sim, Options options, Issue issue);
  /// Cancels the armed pump: pending arrivals are never issued.
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Seeds every UE's first arrival and arms the pump. Arrivals start
  /// relative to the simulator's current time.
  void start();

  /// Closed-loop completion signal: schedules `ue`'s next arrival after a
  /// think time, if it still lands inside the generation window.
  void complete(std::uint32_t ue);

  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }
  /// True once the window has passed and no arrivals remain pending.
  bool drained() const { return pending_.empty(); }
  const Options& options() const { return options_; }

 private:
  struct Arrival {
    std::int64_t at_nanos;
    std::uint32_t ue;
  };

  /// Next exponential inter-arrival gap for `ue`, advancing its stream.
  simnet::SimTime next_gap(std::uint32_t ue, double mean_seconds);
  /// (Re-)arms the pump for the earliest pending arrival, cancelling the
  /// one it supersedes.
  void arm();
  /// The pump event: issues every arrival due now, then re-arms.
  void pump();

  simnet::Simulator& sim_;
  Options options_;
  Issue issue_;
  std::vector<std::uint64_t> rng_;  ///< SoA: one SplitMix64 state per UE
  ArrivalCalendar<Arrival> pending_;
  std::int64_t window_end_nanos_ = 0;
  /// The pump event last armed; cancelling it once it has fired is a no-op.
  simnet::EventId armed_ = simnet::kNoEvent;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace mecdns::workload
