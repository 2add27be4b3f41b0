// Discrete-event simulator core: a clock over the shared event queue.
#pragma once

#include <cstdint>
#include <utility>

#include "simnet/event_queue.h"
#include "simnet/time.h"
#include "util/perfcount.h"

namespace mecdns::simnet {

/// Executes scheduled callbacks in timestamp order. Events scheduled for the
/// same instant run in scheduling order (a monotonic sequence number breaks
/// ties), so runs are fully deterministic — cancelling an event removes it
/// and reorders nothing.
///
/// Each event captures the ambient TraceToken at scheduling time and runs
/// under it, so a trace context follows a request across packet deliveries
/// and processing delays without any per-component plumbing. While a
/// simulator exists it also registers itself as the util::log clock, so log
/// lines carry the simulated time.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at`. Scheduling in the past is
  /// clamped to "immediately after the current event". A lambda is built
  /// straight into its queue slot; a Callback is relocated into it once.
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    if (at < now_) at = now_;
    const EventId id = queue_.push(at, std::forward<F>(fn));
    if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
    ++util::perf::counters().events_scheduled;
    return id;
  }

  /// Schedules `fn` to run `delay` after the current time.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Drops a pending event; returns false (and does nothing) if `id` has
  /// already fired or been cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events with timestamp <= `until` (the clock ends at `until` if the
  /// queue drained earlier). Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Runs at most one event. Returns false if the queue was empty.
  bool step();

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }  ///< live events
  std::size_t executed() const { return executed_; }
  /// Highest number of simultaneously pending events seen so far — the
  /// event-queue analogue of a server's queue-depth high-water mark.
  std::size_t max_queue_depth() const { return max_queue_depth_; }

 private:
  SimTime now_ = SimTime::zero();
  std::size_t executed_ = 0;
  std::size_t max_queue_depth_ = 0;
  EventQueue queue_;
};

}  // namespace mecdns::simnet
