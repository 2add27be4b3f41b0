#include "simnet/simulator.h"

#include "util/log.h"

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
  // The event runs under the context captured at scheduling time, so trace
  // spans follow the request across asynchronous boundaries.
  queue_.fire_next([this](SimTime at) {
    now_ = at;
    ++executed_;
    ++util::perf::counters().events_fired;
  });
  return true;
}

}  // namespace mecdns::simnet
