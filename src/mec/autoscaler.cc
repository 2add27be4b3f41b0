#include "mec/autoscaler.h"

#include <algorithm>

namespace mecdns::mec {

void AutoScaler::note_decision(obs::JournalKind kind, const char* what,
                               std::size_t replicas_now) {
  if (journal_ != nullptr) {
    journal_->record(sim_.now(), kind, journal_cell_, what, replicas_now,
                     static_cast<std::uint64_t>(last_load_per_replica_));
  }
}

void AutoScaler::run_for(std::size_t ticks) {
  if (ticks == 0) return;
  last_load_ = load_();
  next_tick_ =
      sim_.schedule_after(config_.interval, [this, ticks] { tick(ticks); });
}

void AutoScaler::tick(std::size_t remaining) {
  ++ticks_;
  const std::uint64_t total = load_();
  const std::uint64_t delta = total - last_load_;
  last_load_ = total;
  const std::size_t replicas = std::max<std::size_t>(1, replicas_());
  last_load_per_replica_ =
      static_cast<double>(delta) / static_cast<double>(replicas);

  if (cooldown_ > 0) {
    --cooldown_;
  } else if (config_.scale_up_per_replica > 0.0 &&
             last_load_per_replica_ > config_.scale_up_per_replica &&
             replicas < config_.max_replicas) {
    if (scale_up_ && scale_up_()) {
      ++scale_ups_;
      cooldown_ = config_.cooldown_intervals;
      note_decision(obs::JournalKind::kScaleUp, "scale-up", replicas + 1);
    }
  } else if (config_.scale_down_per_replica > 0.0 &&
             last_load_per_replica_ < config_.scale_down_per_replica &&
             replicas > config_.min_replicas) {
    if (scale_down_ && scale_down_()) {
      ++scale_downs_;
      cooldown_ = config_.cooldown_intervals;
      note_decision(obs::JournalKind::kScaleDown, "scale-down",
                    replicas - 1);
    }
  }

  if (remaining > 1) {
    next_tick_ = sim_.schedule_after(
        config_.interval, [this, remaining] { tick(remaining - 1); });
  }
}

}  // namespace mecdns::mec
