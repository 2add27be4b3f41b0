// ChaosController: arms FaultSchedules onto a simulation and records what
// was injected.
//
// The controller is the execution side of the chaos layer: given a network
// and a schedule it places one simulator event per scripted fault, applies
// the fault through the Network's public failure knobs (or the event's
// bound Custom action), and records every injection in its injection list,
// the attached time series and journal, and the log. With an empty
// schedule arm() is a no-op — nothing is scheduled and no RNG is drawn, so
// the run is bit-identical to one without the chaos layer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "obs/journal.h"
#include "obs/timeseries.h"
#include "simnet/network.h"

namespace mecdns::chaos {

/// One applied injection, for post-run inspection (time-to-recover etc.).
struct InjectionRecord {
  simnet::SimTime at;
  std::string kind;
  std::string description;
};

class ChaosController {
 public:
  explicit ChaosController(simnet::Network& net, std::string scenario = "");
  ~ChaosController();

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  /// Each injection becomes a sim-time annotation in `series`, so fault
  /// windows line up with the per-window metrics they perturb.
  void set_timeseries(obs::TimeSeries* series) { timeseries_ = series; }

  /// Each injection becomes a journal event: restorative actions (node_up,
  /// link_up, link_loss at probability 0) record fault_clear, everything
  /// else fault_inject — the seeds incident correlation grows around.
  void set_journal(obs::Journal* journal) { journal_ = journal; }

  /// Schedules every event of `schedule` at its absolute sim time. May be
  /// called multiple times (schedules compose). An empty schedule arms
  /// nothing. Faults scheduled in the past run immediately (simulator
  /// clamping), preserving order.
  void arm(const FaultSchedule& schedule);

  /// Applies one action right now (outside any schedule) and records it.
  void inject_now(const FaultAction& action);

  const std::string& scenario() const { return scenario_; }
  std::size_t injected() const { return injections_.size(); }
  const std::vector<InjectionRecord>& injections() const {
    return injections_;
  }

 private:
  void apply(const FaultAction& action);

  simnet::Network& net_;
  std::string scenario_;
  obs::TimeSeries* timeseries_ = nullptr;
  obs::Journal* journal_ = nullptr;
  std::vector<simnet::EventId> armed_;  ///< cancelled on destruction
  std::vector<InjectionRecord> injections_;
};

}  // namespace mecdns::chaos
