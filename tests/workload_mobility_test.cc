// MobilityModel: scenario shapes, determinism, and the population
// accounting the churn benchmarks depend on.
#include "workload/mobility.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "simnet/simulator.h"
#include "simnet/time.h"

namespace mecdns {
namespace {

using workload::MobilityModel;
using workload::MobilityScenario;

struct Recorded {
  std::int64_t at_nanos;
  std::uint32_t ue;
  std::uint16_t from;
  std::uint16_t to;
};

std::vector<Recorded> record_moves(MobilityModel::Options options) {
  simnet::Simulator sim;
  std::vector<Recorded> moves;
  MobilityModel model(sim, options,
                      [&](std::uint32_t ue, std::uint16_t from,
                          std::uint16_t to) {
                        moves.push_back(
                            Recorded{sim.now().count_nanos(), ue, from, to});
                      });
  model.start();
  sim.run();
  EXPECT_TRUE(model.drained());
  return moves;
}

TEST(MobilityModelTest, DestroyedModelCancelsItsPump) {
  simnet::Simulator sim;
  MobilityModel::Options options;
  options.ues = 200;
  options.scenario = MobilityScenario::kHandoffStorm;
  std::uint64_t moves = 0;
  auto model = std::make_unique<MobilityModel>(
      sim, options,
      [&](std::uint32_t, std::uint16_t, std::uint16_t) { ++moves; });
  model->start();
  sim.run_until(simnet::SimTime::seconds(5));
  const std::uint64_t before = moves;
  ASSERT_GT(before, 0u);
  ASSERT_EQ(sim.pending(), 1u);
  model.reset();
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();  // would run the dead model's pump
  EXPECT_EQ(moves, before);
}

TEST(MobilityModelTest, SlugsRoundTrip) {
  for (const MobilityScenario s : workload::all_mobility_scenarios()) {
    const auto back = workload::mobility_from_slug(workload::mobility_slug(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(workload::mobility_from_slug("teleportation").has_value());
}

TEST(MobilityModelTest, CommuteWaveMovesParticipantsToTargetInWindow) {
  MobilityModel::Options options;
  options.ues = 2000;
  options.cells = 4;
  options.scenario = MobilityScenario::kCommuteWave;
  options.duration = simnet::SimTime::seconds(40);
  options.event_start = simnet::SimTime::seconds(10);
  options.event_end = simnet::SimTime::seconds(25);
  options.target_cell = 2;
  options.participation = 0.5;
  options.seed = 7;
  const auto moves = record_moves(options);

  // Expected movers: participation x (1 - 1/cells) of the population —
  // participants already home on the target cell do not move.
  const double expected = 2000 * 0.5 * (1.0 - 1.0 / 4.0);
  EXPECT_GT(static_cast<double>(moves.size()), expected * 0.85);
  EXPECT_LT(static_cast<double>(moves.size()), expected * 1.15);
  for (const Recorded& m : moves) {
    EXPECT_EQ(m.to, 2u);  // one leg, toward the target, and stays
    EXPECT_GE(m.at_nanos, options.event_start.count_nanos());
    EXPECT_LT(m.at_nanos, options.event_end.count_nanos());
  }
}

TEST(MobilityModelTest, FlashCrowdConvergesThenDispersesHome) {
  MobilityModel::Options options;
  options.ues = 1000;
  options.cells = 3;
  options.scenario = MobilityScenario::kFlashCrowd;
  options.duration = simnet::SimTime::seconds(40);
  options.event_start = simnet::SimTime::seconds(10);
  options.event_end = simnet::SimTime::seconds(25);
  options.target_cell = 0;
  options.participation = 0.8;
  options.crowd_burst = simnet::SimTime::seconds(2);
  options.seed = 11;

  simnet::Simulator sim;
  std::uint32_t converges = 0;
  std::uint32_t disperses = 0;
  MobilityModel model(sim, options,
                      [&](std::uint32_t, std::uint16_t, std::uint16_t to) {
                        if (to == options.target_cell) {
                          ++converges;
                          // Converge leg lands within the burst.
                          EXPECT_GE(sim.now().count_nanos(),
                                    options.event_start.count_nanos());
                          EXPECT_LT(sim.now().count_nanos(),
                                    (options.event_start +
                                     options.crowd_burst).count_nanos());
                        } else {
                          ++disperses;
                          EXPECT_GE(sim.now().count_nanos(),
                                    options.event_end.count_nanos());
                        }
                      });
  model.start();
  sim.run();
  EXPECT_GT(converges, 0u);
  // Every participant who converged from another cell goes home again.
  EXPECT_EQ(converges, disperses);
  // Population is restored once the crowd disperses.
  for (std::uint32_t ue = 0; ue < options.ues; ++ue) {
    EXPECT_EQ(model.cell_of(ue), model.home_of(ue));
  }
}

TEST(MobilityModelTest, HandoffStormKeepsMovingAtTheDwellRate) {
  MobilityModel::Options options;
  options.ues = 500;
  options.cells = 3;
  options.scenario = MobilityScenario::kHandoffStorm;
  options.duration = simnet::SimTime::seconds(30);
  options.dwell = simnet::SimTime::seconds(3);
  options.seed = 13;
  const auto moves = record_moves(options);

  // 500 UEs / 3 s mean dwell over 30 s ~= 5000 moves; exponential gaps,
  // so allow a wide band.
  EXPECT_GT(moves.size(), 3500u);
  EXPECT_LT(moves.size(), 6500u);
  for (const Recorded& m : moves) {
    EXPECT_NE(m.from, m.to);  // a storm move is always a real handoff
    EXPECT_LT(m.at_nanos, options.duration.count_nanos());
  }
}

TEST(MobilityModelTest, MovesAreDeterministicPerSeedAndIndependentOfOrder) {
  MobilityModel::Options options;
  options.ues = 300;
  options.cells = 3;
  options.scenario = MobilityScenario::kHandoffStorm;
  options.duration = simnet::SimTime::seconds(20);
  options.seed = 99;
  const auto a = record_moves(options);
  const auto b = record_moves(options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::tie(a[i].at_nanos, a[i].ue, a[i].from, a[i].to),
              std::tie(b[i].at_nanos, b[i].ue, b[i].from, b[i].to));
  }
  options.seed = 100;
  const auto c = record_moves(options);
  EXPECT_NE(a.size(), c.size());
}

TEST(MobilityModelTest, PopulationTracksCellTableAndConservesUes) {
  MobilityModel::Options options;
  options.ues = 400;
  options.cells = 4;
  options.scenario = MobilityScenario::kFlashCrowd;
  options.duration = simnet::SimTime::seconds(40);
  options.participation = 0.9;
  options.seed = 17;

  simnet::Simulator sim;
  MobilityModel model(sim, options, [](std::uint32_t, std::uint16_t,
                                       std::uint16_t) {});
  model.start();
  std::uint32_t total = 0;
  for (std::uint16_t c = 0; c < options.cells; ++c) {
    total += model.population(c);
  }
  EXPECT_EQ(total, options.ues);

  // At the crowd peak most of the population sits on the target cell.
  sim.run_until(options.event_start + options.crowd_burst +
                simnet::SimTime::millis(1));
  EXPECT_GT(model.population(options.target_cell), options.ues / 2);
  total = 0;
  for (std::uint16_t c = 0; c < options.cells; ++c) {
    total += model.population(c);
  }
  EXPECT_EQ(total, options.ues);
}

TEST(MobilityModelTest, CallbackSeesUpdatedCellTable) {
  MobilityModel::Options options;
  options.ues = 50;
  options.cells = 3;
  options.scenario = MobilityScenario::kHandoffStorm;
  options.duration = simnet::SimTime::seconds(10);
  options.seed = 23;

  simnet::Simulator sim;
  MobilityModel* ptr = nullptr;
  MobilityModel model(sim, options,
                      [&ptr](std::uint32_t ue, std::uint16_t,
                             std::uint16_t to) {
                        ASSERT_NE(ptr, nullptr);
                        EXPECT_EQ(ptr->cell_of(ue), to);
                      });
  ptr = &model;
  model.start();
  sim.run();
  EXPECT_GT(model.moves(), 0u);
}

}  // namespace
}  // namespace mecdns
