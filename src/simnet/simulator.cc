#include "simnet/simulator.h"

#include <utility>

#include "util/log.h"
#include "util/perfcount.h"

namespace mecdns::simnet {

namespace {
std::int64_t simulator_log_clock(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now().count_nanos();
}
}  // namespace

Simulator::Simulator() {
  util::set_log_clock(&simulator_log_clock, this);
}

Simulator::~Simulator() { util::clear_log_clock(this); }

EventId Simulator::schedule_at(SimTime at, Callback fn) {
  if (at < now_) at = now_;
  const EventId id = queue_.push(at, std::move(fn));
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
  ++util::perf::counters().events_scheduled;
  return id;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime until) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.next_at() <= until) {
    step();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Event ev = queue_.pop();
  now_ = ev.at;
  ++executed_;
  ++util::perf::counters().events_fired;
  // Run under the context captured at scheduling time, so trace spans
  // follow the request across asynchronous boundaries.
  TraceTokenGuard context(ev.trace);
  ev.fn();
  return true;
}

}  // namespace mecdns::simnet
