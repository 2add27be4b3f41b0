// Access-technology delay profiles.
//
// Calibrated to the paper's measurements: the LTE air interface contributes
// ~10 ms one-way with a heavy tail ("a dominant component of the MEC L-DNS
// time is the wireless LTE latency (approx. 10 ms one way)"), Wi-Fi adds a
// few jittery milliseconds, wired campus links are sub-millisecond, and 5G
// NR is the "drastically reduced" future case the paper anticipates.
#pragma once

#include <string>

#include "simnet/latency.h"

namespace mecdns::ran {

struct AccessProfile {
  std::string name;
  simnet::LatencyModel uplink;    ///< UE -> network, one way
  simnet::LatencyModel downlink;  ///< network -> UE, one way
};

/// 4G LTE air interface: ~10 ms one-way mean, heavy-tailed.
AccessProfile lte();

/// 5G NR: ~1.5 ms one-way, much tighter distribution.
AccessProfile nr5g();

/// Home Wi-Fi hop: ~2.5 ms with moderate jitter.
AccessProfile wifi_home();

/// Wired campus Ethernet: ~0.3 ms, near-deterministic.
AccessProfile wired_campus();

// --- non-access link helpers (shared by scenario builders) -----------------

/// Same-site LAN link: ~1.2 ms.
simnet::LatencyModel lan_link();

/// Wide-area (inter-city / cloud) link with mean one-way ~`mean_ms`.
simnet::LatencyModel wan_link(double mean_ms);

}  // namespace mecdns::ran
