// Large-scale UE mobility scenarios: deterministic movement workloads over
// the load generator's compact per-UE state.
//
// The paper re-points a UE's resolver "as part of the cellular hand-off
// process" (§3 P1); what it never stresses is the regime where *many* UEs
// hand off or converge at once. This model drives three canonical churn
// workloads over a population of UEs spread across MEC cells:
//
//   * commute wave  — a participating fraction of the population migrates,
//     spread across the event window, to one target cell (morning rush into
//     downtown) and stays;
//   * flash crowd   — the same fraction converges in a tight burst at the
//     event start (stadium gates open) and disperses home after the event;
//   * handoff storm — every UE hands off continuously with exponential
//     dwell times (highway cells), so the churn is in the *rate* of
//     re-targets, not the population distribution.
//
// State is struct-of-arrays like workload::LoadGenerator: one SplitMix64
// stream position, a current cell and a home cell per UE, plus the same
// ArrivalCalendar of pending moves, drained by a single armed pump event. Every
// move is a pure function of (seed, ue), so campaigns stay byte-identical
// at any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simnet/simulator.h"
#include "simnet/time.h"
#include "workload/arrival_calendar.h"

namespace mecdns::workload {

enum class MobilityScenario {
  kCommuteWave,
  kFlashCrowd,
  kHandoffStorm,
};

const char* mobility_slug(MobilityScenario scenario);
std::optional<MobilityScenario> mobility_from_slug(std::string_view slug);
std::vector<MobilityScenario> all_mobility_scenarios();

class MobilityModel {
 public:
  struct Options {
    std::uint32_t ues = 1000;
    std::uint16_t cells = 3;
    MobilityScenario scenario = MobilityScenario::kFlashCrowd;
    /// Moves are generated in [start, start + duration).
    simnet::SimTime duration = simnet::SimTime::seconds(40);
    /// Event window (commute wave spreads over it; flash crowd converges
    /// at its start and disperses at its end).
    simnet::SimTime event_start = simnet::SimTime::seconds(10);
    simnet::SimTime event_end = simnet::SimTime::seconds(25);
    /// Cell the wave/crowd converges on (downtown / the stadium).
    std::uint16_t target_cell = 0;
    /// Fraction of the population that takes part in the wave/crowd.
    double participation = 0.8;
    /// Flash crowd: converge within this span after event_start.
    simnet::SimTime crowd_burst = simnet::SimTime::seconds(2);
    /// Handoff storm: mean (exponential) dwell time in a cell.
    simnet::SimTime dwell = simnet::SimTime::seconds(3);
    std::uint64_t seed = 1;
  };

  /// Invoked for every executed move, after the model's own cell table is
  /// updated (cell_of(ue) == to inside the callback).
  using Move = std::function<void(std::uint32_t ue, std::uint16_t from,
                                  std::uint16_t to)>;

  MobilityModel(simnet::Simulator& sim, Options options, Move move);
  /// Cancels the armed pump: pending moves never run.
  ~MobilityModel();
  MobilityModel(const MobilityModel&) = delete;
  MobilityModel& operator=(const MobilityModel&) = delete;

  /// Assigns every UE its initial cell (uniform per-UE stream draw) and
  /// schedules the scenario's moves relative to the simulator's current
  /// time. Initial placement does NOT invoke the move callback.
  void start();

  std::uint16_t cell_of(std::uint32_t ue) const { return cell_[ue]; }
  std::uint16_t home_of(std::uint32_t ue) const { return home_[ue]; }
  std::uint64_t moves() const { return moves_; }
  bool drained() const { return pending_.empty(); }
  /// Population currently in `cell` (O(UEs); for tests and summaries).
  std::uint32_t population(std::uint16_t cell) const;
  const Options& options() const { return options_; }

 private:
  struct Pending {
    std::int64_t at_nanos;
    std::uint32_t ue;
    std::uint16_t to;
  };

  double uniform(std::uint32_t ue);
  simnet::SimTime exp_gap(std::uint32_t ue, double mean_seconds);
  /// A uniformly random cell different from `from`.
  std::uint16_t other_cell(std::uint32_t ue, std::uint16_t from);
  /// Arms the pump for the earliest pending move (called only when no
  /// pump is pending: from start() and at the end of a pump).
  void arm();
  /// The pump event: runs every move due now, then re-arms.
  void pump();

  simnet::Simulator& sim_;
  Options options_;
  Move move_;
  std::vector<std::uint64_t> rng_;   ///< SoA: SplitMix64 state per UE
  std::vector<std::uint16_t> cell_;  ///< current cell per UE
  std::vector<std::uint16_t> home_;  ///< initial cell (crowd disperses home)
  ArrivalCalendar<Pending> pending_;
  std::int64_t start_nanos_ = 0;
  std::int64_t window_end_nanos_ = 0;
  /// The pump event last armed; cancelling it once it has fired is a no-op.
  simnet::EventId armed_ = simnet::kNoEvent;
  std::uint64_t moves_ = 0;
};

}  // namespace mecdns::workload
