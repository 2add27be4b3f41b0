#include "ran/profiles.h"

namespace mecdns::ran {

using simnet::LatencyModel;
using simnet::SimTime;

AccessProfile lte() {
  // floor 7 ms scheduling/HARQ + lognormal(median 2.4 ms, sigma 0.75)
  // => mean one-way ~10.2 ms, p99 tail into the tens of ms — matching the
  // high variability of the paper's "cellular-mobile" bars.
  return AccessProfile{
      "lte",
      LatencyModel::lognormal(SimTime::millis(7.0), SimTime::millis(2.4), 0.75),
      LatencyModel::lognormal(SimTime::millis(7.0), SimTime::millis(2.4), 0.75),
  };
}

AccessProfile nr5g() {
  return AccessProfile{
      "5g-nr",
      LatencyModel::lognormal(SimTime::millis(0.9), SimTime::millis(0.5), 0.5),
      LatencyModel::lognormal(SimTime::millis(0.9), SimTime::millis(0.5), 0.5),
  };
}

AccessProfile wifi_home() {
  return AccessProfile{
      "wifi-home",
      LatencyModel::lognormal(SimTime::millis(1.2), SimTime::millis(1.1), 0.6),
      LatencyModel::lognormal(SimTime::millis(1.2), SimTime::millis(1.1), 0.6),
  };
}

AccessProfile wired_campus() {
  return AccessProfile{
      "wired-campus",
      LatencyModel::normal(SimTime::millis(0.3), SimTime::micros(60),
                           SimTime::micros(100)),
      LatencyModel::normal(SimTime::millis(0.3), SimTime::micros(60),
                           SimTime::micros(100)),
  };
}

LatencyModel lan_link() {
  return LatencyModel::normal(SimTime::millis(1.2), SimTime::micros(250),
                              SimTime::micros(300));
}

LatencyModel wan_link(double mean_ms) {
  // ~80% of the mean as propagation floor, the rest as a jittery tail.
  const double floor_ms = mean_ms * 0.8;
  const double median_ms = mean_ms * 0.17;
  return LatencyModel::lognormal(SimTime::millis(floor_ms),
                                 SimTime::millis(median_ms), 0.45);
}

}  // namespace mecdns::ran
