// One-way link delay models.
//
// Each access technology in the paper has a characteristic delay profile:
// wired campus links are tight, Wi-Fi adds moderate jitter, and the LTE air
// interface contributes ~10 ms one-way with a heavy tail (the paper's
// "substantially higher delay and higher response time variability").
// A LatencyModel samples a one-way delay per packet.
#pragma once

#include <cstdint>
#include <type_traits>

#include "simnet/time.h"
#include "util/rng.h"

namespace mecdns::simnet {

/// Per-packet one-way delay distribution: one of four closed kinds and its
/// parameters. A plain value; copies are trivial.
class LatencyModel {
 public:
  /// Zero delay.
  LatencyModel() = default;

  /// Fixed delay.
  static LatencyModel constant(SimTime delay);

  /// Uniform in [lo, hi].
  static LatencyModel uniform(SimTime lo, SimTime hi);

  /// Normal(mean, stddev) truncated below at `floor`.
  static LatencyModel normal(SimTime mean, SimTime stddev, SimTime floor);

  /// Log-normal parameterized by its median and a shape sigma, shifted by a
  /// fixed propagation `floor`. Heavy-tailed; matches measured wireless and
  /// WAN delay distributions well.
  static LatencyModel lognormal(SimTime floor, SimTime median, double sigma);

  SimTime sample(util::Rng& rng) const;

  /// Expected one-way delay; used as the routing cost of a link.
  SimTime mean() const { return mean_; }

 private:
  enum class Kind : std::uint8_t { kConstant, kUniform, kNormal, kLognormal };

  Kind kind_ = Kind::kConstant;
  /// Every kind; also the constant's delay and the normal's centre.
  SimTime mean_;
  /// kUniform: lo. kNormal, kLognormal: the floor.
  SimTime low_;
  /// kUniform: hi - lo. kNormal: the standard deviation.
  SimTime spread_;
  /// kLognormal: the underlying normal's mean (log of the median) and sigma.
  double mu_ = 0.0;
  double sigma_ = 0.0;
};

static_assert(std::is_trivially_copyable_v<LatencyModel>);

}  // namespace mecdns::simnet
