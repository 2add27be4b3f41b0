#include "mec/ingress.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mecdns::mec {

namespace {
constexpr std::int64_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();
}  // namespace

IngressMonitor::IngressMonitor(simnet::SimTime window) : window_(window) {
  if (window.count_nanos() > kMaxOffset) {
    throw std::invalid_argument(
        "IngressMonitor window must be shorter than 2^32 ns");
  }
}

void IngressMonitor::record(simnet::SimTime now) {
  prune(now);
  if (offsets_.empty()) base_ = now;
  std::int64_t at = (now - base_).count_nanos();
  if (at < 0 || at > kMaxOffset) {
    rebase(now);
    at = (now - base_).count_nanos();
  }
  offsets_.push_back(static_cast<std::uint32_t>(at));
}

std::size_t IngressMonitor::rate(simnet::SimTime now) const {
  prune(now);
  return offsets_.size();
}

void IngressMonitor::prune(simnet::SimTime now) const {
  const std::int64_t cutoff = (now - window_ - base_).count_nanos();
  while (!offsets_.empty() && offsets_.front() < cutoff) {
    offsets_.pop_front();
  }
}

void IngressMonitor::rebase(simnet::SimTime now) {
  // The new base is the earliest kept arrival (or `now`): after prune()
  // the kept arrivals lie within about one window of `now`, so shifting
  // them all by a common amount keeps every one representable.
  std::int64_t lo = (now - base_).count_nanos();
  std::int64_t hi = lo;
  for (const std::uint32_t offset : offsets_) {
    lo = std::min<std::int64_t>(lo, offset);
    hi = std::max<std::int64_t>(hi, offset);
  }
  if (hi - lo > kMaxOffset) {
    throw std::logic_error(
        "IngressMonitor arrivals span more than 2^32 ns");
  }
  for (std::uint32_t& offset : offsets_) {
    offset = static_cast<std::uint32_t>(offset - lo);
  }
  base_ = base_ + simnet::SimTime::nanos(lo);
}

bool OverloadGuardPlugin::shed_one(const dns::Query& query,
                                   Respond& respond) {
  ++shed_;
  respond(dns::make_response(query, action_ == OverloadAction::kServFail
                                         ? dns::RCode::kServFail
                                         : dns::RCode::kRefused));
  return true;
}

bool OverloadGuardPlugin::serve(const dns::Query& query,
                                const dns::QueryContext& ctx,
                                Respond& respond) {
  const simnet::SimTime now = ctx.received;

  // Bounded-queue admission control runs before the rate policy: a
  // saturated worker FIFO behind this query means new arrivals are being
  // dropped and the backlog is aging toward client timeouts — shed cheaply
  // (no plugin chain, no upstream work) so the queue drains fast.
  if (queue_probe_ && queue_limit_ > 0 && queue_probe_() >= queue_limit_) {
    ++shed_queue_full_;
    if (!queue_full_active_) {
      queue_full_active_ = true;
      if (journal_ != nullptr) {
        journal_->record(now, obs::JournalKind::kQueueProbeShed,
                         journal_cell_, "queue probe at limit",
                         queue_limit_);
      }
    }
    return shed_one(query, respond);
  }
  queue_full_active_ = false;

  const bool over = monitor_.rate(now) >= threshold_;

  if (recovery_windows_ == 0) {
    // Legacy stateless comparison.
    if (over) {
      return shed_one(query, respond);
    }
  } else if (shedding_) {
    if (over) {
      below_since_.reset();
      return shed_one(query, respond);
    }
    if (!below_since_.has_value()) below_since_ = now;
    const simnet::SimTime quiet = now - *below_since_;
    if (quiet < monitor_.window() * static_cast<std::int64_t>(
                    recovery_windows_)) {
      return shed_one(query, respond);
    }
    // Quiet long enough: recover and admit this query.
    shedding_ = false;
    below_since_.reset();
    ++recoveries_;
    if (journal_ != nullptr) {
      journal_->record(now, obs::JournalKind::kGuardRecover, journal_cell_,
                       "ingress back under threshold", threshold_);
    }
  } else if (over) {
    shedding_ = true;
    below_since_.reset();
    ++trips_;
    if (journal_ != nullptr) {
      journal_->record(now, obs::JournalKind::kGuardTrip, journal_cell_,
                       "ingress over threshold", threshold_,
                       monitor_.rate(now));
    }
    return shed_one(query, respond);
  }

  monitor_.record(now);
  ++admitted_;
  return false;
}

}  // namespace mecdns::mec
