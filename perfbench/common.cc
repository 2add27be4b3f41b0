#include "common.h"

#include "dns/wire.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>

namespace perfbench {

Percentile percentile(std::vector<double>& values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const double exact = p / 100.0 * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  out.value = *nth;
  out.beyond = values.size() - rank;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

CodecReplay replay_codec(const std::vector<std::vector<std::uint8_t>>& wire) {
  constexpr int kPasses = 5;
  CodecReplay out;
  std::vector<mecdns::dns::Message> messages;
  messages.reserve(wire.size());
  std::int64_t decode_ns = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    messages.clear();
    const std::int64_t start = now_ns();
    for (const auto& bytes : wire) {
      auto decoded = mecdns::dns::decode(bytes);
      if (decoded.ok()) messages.push_back(std::move(decoded.value()));
    }
    decode_ns += now_ns() - start;
  }
  std::int64_t encode_ns = 0;
  std::size_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::int64_t start = now_ns();
    for (const auto& m : messages) sink += mecdns::dns::encode_view(m).size();
    encode_ns += now_ns() - start;
  }
  out.messages = messages.size();
  if (messages.empty() || sink == 0) return out;
  const double ops = static_cast<double>(kPasses) * messages.size();
  out.decode_ns = static_cast<double>(decode_ns) / ops;
  out.encode_ns = static_cast<double>(encode_ns) / ops;
  return out;
}

CpuSet::CpuSet() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

void CpuSet::pin(int pid, std::size_t k) const {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k % cpus_.size()], &set);
  sched_setaffinity(pid, sizeof(set), &set);
}

void self_cpu_seconds(double& user_s, double& sys_s) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  user_s = static_cast<double>(usage.ru_utime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
          static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
}

double status_value(const char* field, int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  const std::string key = std::string(field) + ":";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  return -1.0;
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

std::string format_number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

void report(const std::string& workload, const std::string& name,
            double value, const std::string& unit, const std::string& note) {
  std::cout << workload << "  " << name << " = " << format_number(value)
            << ' ' << unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

int finish(Outcome outcome) {
  for (const auto& [name, metric] : outcome.metrics) {
    outcome.check(std::isfinite(metric.value), name + " is not a number");
  }
  for (const std::string& error : outcome.errors) {
    std::cout << "CHECK FAILED: " << error << '\n';
  }
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    if (!first) line += ", ";
    first = false;
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    line += '"' + name + "\": {\"value\": " + format_number(value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return outcome.correct ? 0 : 1;
}

}  // namespace perfbench
