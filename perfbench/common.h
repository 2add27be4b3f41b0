// Shared pieces of the benchmark: percentile reporting, process resource
// probes and the report/result printers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A reported percentile: the nearest-rank value, the sample count it was
/// taken from, and how many samples lie strictly beyond its rank. A
/// percentile is only trusted when at least kMinBeyond samples back it.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;

  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;

  bool supported() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; reorders them.
Percentile percentile(std::vector<double>& values, double p);

/// The wall-clock results are the fast end of a run's chunks or windows:
/// rates at this percentile, CPU per query at 100 minus it. Other tenants'
/// load only ever slows a chunk, and it moves between the vCPUs the
/// measured process rotates over (see CpuSet) and drifts over minutes:
/// consecutive sim chunks of one run alternated between ~44k and ~31k q/s,
/// and the live server lost up to 42% of a run to the host. Over two sets
/// of ten runs whose sim medians moved 19-22% with that drift, the fastest
/// chunk moved 7-9%; over five or six seeds the 90th percentile spread
/// 0.08 (sim) and 0.03 (live) against the medians' 0.12 and 0.07, and
/// unlike the fastest chunk it rests on several.
constexpr double kFastPercentile = 90.0;

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
double median(std::vector<double> values);

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// dns.codec.encode_ns / decode_ns: `wire` decoded, then the decoded
/// messages encoded again, a few passes each; ns per message.
struct CodecReplay {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t messages = 0;  ///< that decoded
};
CodecReplay replay_codec(const std::vector<std::vector<std::uint8_t>>& wire);

/// The CPUs this process may run on, read once. On a shared VM the vCPUs
/// run at different speeds, as other tenants load their sibling threads
/// (a fixed loop ran 25-50% faster on one vCPU than another, 4-vCPU VM),
/// and the scheduler tends to leave a busy process where it started, so a
/// run measures the luck of its placement. Moving the measured process
/// round-robin over all the CPUs, a few times a second, averages each run
/// over all of them.
class CpuSet {
 public:
  CpuSet();
  std::size_t size() const { return cpus_.size(); }
  /// Pins `pid` (0 = the calling thread) to the (k mod size)-th CPU.
  void pin(int pid, std::size_t k) const;
  /// Pins the calling thread to the CPU after the one next() picked last.
  void next() { pin(0, next_++); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// CPU seconds (user, system) of this process so far.
void self_cpu_seconds(double& user_s, double& sys_s);

/// A numeric field of /proc/<pid>/status (pid 0 = self), as the kernel
/// prints it (kB for the Vm* sizes), or -1.
double status_value(const char* field, int pid = 0);

/// Monotonic nanoseconds, for spans.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One result line: the metrics of a single run, plus the run's outcome.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< the ones the final line carries
  std::vector<std::string> errors;        ///< failed output checks

  void check(bool ok, const std::string& what);
};

/// Prints a human-readable report line: `name value unit [note]`.
void report(const std::string& workload, const std::string& name,
            double value, const std::string& unit,
            const std::string& note = "");

/// Prints the errors and, as the last line of stdout, the result JSON.
/// Returns the process exit code: 0 only when every check passed.
int finish(Outcome outcome);

/// Shortest round-trip decimal text of `value`.
std::string format_number(double value);

}  // namespace perfbench
