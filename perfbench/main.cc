// perfbench: the repository benchmark's program. run.py builds it and calls
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--server <path to mecdns_livewire>]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--server") {
      args.server = value;
    } else {
      std::cerr << "error: unknown flag " << key << '\n';
      return 2;
    }
  }
  if (args.seconds <= 0.0) {
    std::cerr << "error: --seconds must be positive\n";
    return 2;
  }
  try {
    if (args.workload == "live-udp") return perfbench::run_live(args);
    return perfbench::run_sim(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
