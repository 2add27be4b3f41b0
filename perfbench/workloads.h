// The benchmark's workloads. Each prints report lines and, last, the
// result JSON; the return value is the process exit code.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string server;  ///< path to the mecdns_livewire binary (live-udp)
};

/// sim-mec-steady and sim-provider-zipf.
int run_sim(const RunArgs& args);

/// live-udp.
int run_live(const RunArgs& args);

}  // namespace perfbench
