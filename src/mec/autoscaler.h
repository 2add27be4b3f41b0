// Orchestrator-driven auto-scaling of edge cache servers.
//
// §3 P1 lets the MEC orchestrator "deploy other more sophisticated
// mitigation policies" from its monitoring statistics; Huang et al.
// (PAPERS.md) make per-site capacity a first-class constraint of edge
// allocation. AutoScaler is the composition: a periodic sim-time control
// loop that reads a cumulative load counter (e.g. total edge-cache
// requests), computes per-replica load for the last interval, and asks the
// site to add or retire a cache replica when the load crosses the
// watermarks. All decisions are deterministic functions of sim time and
// the counters, so scaled runs stay byte-identical at any worker count.
//
// The scaler is deliberately generic — callbacks, not a hard dependency on
// MecCdnSite — so tests can drive it against counters and the site wires
// in its real add_edge_cache/retire_edge_cache actions.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/journal.h"
#include "simnet/simulator.h"

namespace mecdns::mec {

class AutoScaler {
 public:
  struct Config {
    /// Control-loop period (sim time).
    simnet::SimTime interval = simnet::SimTime::seconds(1);
    /// Load units per replica per interval above which a replica is added.
    double scale_up_per_replica = 0.0;
    /// ... below which a replica is retired. Keep well under the up
    /// watermark or the loop oscillates.
    double scale_down_per_replica = 0.0;
    std::size_t min_replicas = 1;
    std::size_t max_replicas = 8;
    /// Intervals to hold still after any scaling action (lets the new
    /// replica absorb load before the next decision).
    std::size_t cooldown_intervals = 2;
  };

  using LoadProbe = std::function<std::uint64_t()>;   ///< cumulative counter
  using ReplicaProbe = std::function<std::size_t()>;  ///< current replicas
  using ScaleAction = std::function<bool()>;          ///< applied?

  AutoScaler(simnet::Simulator& sim, Config config, LoadProbe load,
             ReplicaProbe replicas, ScaleAction scale_up,
             ScaleAction scale_down)
      : sim_(sim),
        config_(config),
        load_(std::move(load)),
        replicas_(std::move(replicas)),
        scale_up_(std::move(scale_up)),
        scale_down_(std::move(scale_down)) {}

  /// Cancels the armed tick, so a scaler destroyed mid-run leaves no
  /// timer capturing it behind.
  ~AutoScaler() { sim_.cancel(next_tick_); }
  AutoScaler(const AutoScaler&) = delete;
  AutoScaler& operator=(const AutoScaler&) = delete;

  /// Runs the control loop for `ticks` intervals, then stops (a bounded
  /// event chain, so simulations drain).
  void run_for(std::size_t ticks);

  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }

  /// Scale-up / scale-down decisions become journal events (a = replicas
  /// after the action, b = load per replica, rounded) attributed to
  /// `cell`.
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

 private:
  void tick(std::size_t remaining);

  simnet::Simulator& sim_;
  Config config_;
  LoadProbe load_;
  ReplicaProbe replicas_;
  ScaleAction scale_up_;
  ScaleAction scale_down_;

  void note_decision(obs::JournalKind kind, const char* what,
                     std::size_t replicas_now);

  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;

  simnet::EventId next_tick_ = simnet::kNoEvent;
  std::uint64_t last_load_ = 0;
  std::size_t cooldown_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  double last_load_per_replica_ = 0.0;
};

}  // namespace mecdns::mec
