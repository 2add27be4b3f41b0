#include "workload/mobility.h"

#include <cmath>

namespace mecdns::workload {

namespace {

/// SplitMix64 step, same stream construction as the load generator so a
/// (seed, ue) pair fully determines a UE's movement history.
std::uint64_t split_mix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(split_mix64_next(state) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* mobility_slug(MobilityScenario scenario) {
  switch (scenario) {
    case MobilityScenario::kCommuteWave:
      return "commute-wave";
    case MobilityScenario::kFlashCrowd:
      return "flash-crowd";
    case MobilityScenario::kHandoffStorm:
      return "handoff-storm";
  }
  return "unknown";
}

std::optional<MobilityScenario> mobility_from_slug(std::string_view slug) {
  for (const MobilityScenario scenario : all_mobility_scenarios()) {
    if (slug == mobility_slug(scenario)) return scenario;
  }
  return std::nullopt;
}

std::vector<MobilityScenario> all_mobility_scenarios() {
  return {MobilityScenario::kCommuteWave, MobilityScenario::kFlashCrowd,
          MobilityScenario::kHandoffStorm};
}

MobilityModel::MobilityModel(simnet::Simulator& sim, Options options,
                             Move move)
    : sim_(sim), options_(options), move_(std::move(move)) {
  rng_.resize(options_.ues);
  cell_.resize(options_.ues, 0);
  home_.resize(options_.ues, 0);
  for (std::uint32_t ue = 0; ue < options_.ues; ++ue) {
    // Distinct constant from the load generator's stream so sharing a seed
    // with it does not correlate arrivals with movements.
    std::uint64_t s =
        options_.seed ^ (0xd1b54a32d192ed03ULL * (ue + 1));
    split_mix64_next(s);
    rng_[ue] = s;
  }
}

double MobilityModel::uniform(std::uint32_t ue) { return uniform01(rng_[ue]); }

simnet::SimTime MobilityModel::exp_gap(std::uint32_t ue,
                                       double mean_seconds) {
  const double u = uniform01(rng_[ue]);
  return simnet::SimTime::seconds(-mean_seconds * std::log(1.0 - u));
}

std::uint16_t MobilityModel::other_cell(std::uint32_t ue,
                                        std::uint16_t from) {
  if (options_.cells <= 1) return from;
  const std::uint16_t step = static_cast<std::uint16_t>(
      1 + split_mix64_next(rng_[ue]) % (options_.cells - 1));
  return static_cast<std::uint16_t>((from + step) % options_.cells);
}

void MobilityModel::start() {
  start_nanos_ = sim_.now().count_nanos();
  window_end_nanos_ = start_nanos_ + options_.duration.count_nanos();
  if (options_.ues == 0 || options_.cells == 0) return;

  ArrivalCalendar<Pending>::Seed first;
  for (std::uint32_t ue = 0; ue < options_.ues; ++ue) {
    const std::uint16_t initial = static_cast<std::uint16_t>(
        split_mix64_next(rng_[ue]) % options_.cells);
    cell_[ue] = initial;
    home_[ue] = initial;

    switch (options_.scenario) {
      case MobilityScenario::kCommuteWave: {
        // Participants migrate to the target cell at a time uniform in the
        // event window, and stay (the morning rush has no return leg
        // inside the measurement window).
        if (uniform(ue) >= options_.participation) break;
        if (cell_[ue] == options_.target_cell) break;
        const double span_s =
            (options_.event_end - options_.event_start).to_seconds();
        const std::int64_t at =
            start_nanos_ + options_.event_start.count_nanos() +
            simnet::SimTime::seconds(uniform(ue) * span_s).count_nanos();
        if (at < window_end_nanos_) {
          first.push_back(Pending{at, ue, options_.target_cell});
        }
        break;
      }
      case MobilityScenario::kFlashCrowd: {
        // Participants converge within the burst after event_start and
        // disperse home (with the same jitter profile) at event_end.
        if (uniform(ue) >= options_.participation) break;
        if (cell_[ue] == options_.target_cell) break;
        const double burst_s = options_.crowd_burst.to_seconds();
        const std::int64_t converge =
            start_nanos_ + options_.event_start.count_nanos() +
            simnet::SimTime::seconds(uniform(ue) * burst_s).count_nanos();
        if (converge < window_end_nanos_) {
          first.push_back(Pending{converge, ue, options_.target_cell});
        }
        break;
      }
      case MobilityScenario::kHandoffStorm: {
        const std::int64_t at =
            start_nanos_ +
            exp_gap(ue, options_.dwell.to_seconds()).count_nanos();
        if (at < window_end_nanos_) {
          first.push_back(Pending{at, ue, other_cell(ue, initial)});
        }
        break;
      }
    }
  }
  pending_.load(std::move(first), start_nanos_, window_end_nanos_);
  arm();
}

std::uint32_t MobilityModel::population(std::uint16_t cell) const {
  std::uint32_t n = 0;
  for (const std::uint16_t c : cell_) n += (c == cell) ? 1 : 0;
  return n;
}

MobilityModel::~MobilityModel() { sim_.cancel(armed_); }

void MobilityModel::arm() {
  if (pending_.empty()) return;
  armed_ = sim_.schedule_at(simnet::SimTime::nanos(pending_.top().at_nanos),
                            [this] { pump(); });
}

void MobilityModel::pump() {
  const std::int64_t now = sim_.now().count_nanos();
  while (!pending_.empty() && pending_.top().at_nanos <= now) {
    const Pending next = pending_.pop();

    const std::uint16_t from = cell_[next.ue];
    if (next.to != from) {
      cell_[next.ue] = next.to;
      ++moves_;
      move_(next.ue, from, next.to);
    }

    // Schedule the follow-up move, per scenario.
    switch (options_.scenario) {
      case MobilityScenario::kCommuteWave:
        break;  // one leg
      case MobilityScenario::kFlashCrowd: {
        // After converging, go home at event_end + the same jitter span.
        if (next.to == options_.target_cell &&
            home_[next.ue] != options_.target_cell) {
          const double burst_s = options_.crowd_burst.to_seconds();
          const std::int64_t disperse =
              start_nanos_ + options_.event_end.count_nanos() +
              simnet::SimTime::seconds(uniform(next.ue) * burst_s)
                  .count_nanos();
          if (disperse < window_end_nanos_) {
            pending_.push(Pending{disperse, next.ue, home_[next.ue]});
          }
        }
        break;
      }
      case MobilityScenario::kHandoffStorm: {
        const std::int64_t at =
            next.at_nanos +
            exp_gap(next.ue, options_.dwell.to_seconds()).count_nanos();
        if (at < window_end_nanos_) {
          pending_.push(Pending{at, next.ue, other_cell(next.ue, next.to)});
        }
        break;
      }
    }
  }
  arm();
}

}  // namespace mecdns::workload
