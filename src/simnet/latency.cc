#include "simnet/latency.h"

#include <algorithm>
#include <cmath>

namespace mecdns::simnet {

LatencyModel LatencyModel::constant(SimTime delay) {
  LatencyModel model;
  model.mean_ = delay;
  return model;
}

LatencyModel LatencyModel::uniform(SimTime lo, SimTime hi) {
  LatencyModel model;
  model.kind_ = Kind::kUniform;
  model.mean_ = SimTime::nanos((lo.count_nanos() + hi.count_nanos()) / 2);
  model.low_ = lo;
  model.spread_ = hi - lo;
  return model;
}

LatencyModel LatencyModel::normal(SimTime mean, SimTime stddev, SimTime floor) {
  LatencyModel model;
  model.kind_ = Kind::kNormal;
  model.mean_ = mean;
  model.low_ = floor;
  model.spread_ = stddev;
  return model;
}

LatencyModel LatencyModel::lognormal(SimTime floor, SimTime median,
                                     double sigma) {
  // X = floor + LogNormal(mu, sigma) where exp(mu) = median.
  LatencyModel model;
  model.kind_ = Kind::kLognormal;
  model.mu_ = std::log(static_cast<double>(median.count_nanos()));
  model.sigma_ = sigma;
  model.low_ = floor;
  // E[LogNormal] = exp(mu + sigma^2/2).
  model.mean_ = floor + SimTime::nanos(static_cast<std::int64_t>(
                            std::exp(model.mu_ + sigma * sigma / 2.0)));
  return model;
}

SimTime LatencyModel::sample(util::Rng& rng) const {
  switch (kind_) {
    case Kind::kConstant:
      return mean_;
    case Kind::kUniform: {
      const double ns = static_cast<double>(low_.count_nanos()) +
                        rng.uniform() *
                            static_cast<double>(spread_.count_nanos());
      return SimTime::nanos(static_cast<std::int64_t>(ns));
    }
    case Kind::kNormal: {
      const double ns = rng.normal(static_cast<double>(mean_.count_nanos()),
                                   static_cast<double>(spread_.count_nanos()));
      return std::max(SimTime::nanos(static_cast<std::int64_t>(ns)), low_);
    }
    case Kind::kLognormal:
      return low_ + SimTime::nanos(
                        static_cast<std::int64_t>(rng.lognormal(mu_, sigma_)));
  }
  return mean_;
}

}  // namespace mecdns::simnet
