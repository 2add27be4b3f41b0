// live-udp: mecdns_livewire serve mode, driven over loopback UDP.
//
// The server runs as a child process with one thread, serving a zone of
// kZoneNames A records behind an armed ingress guard (threshold far above
// any offered rate). One generator thread on a few sockets drives it: an
// open-loop warm-up, an open-loop reference step at a fixed rate for
// latency and CPU cost, then a closed-loop saturation phase that keeps
// kInFlight queries outstanding for the server's throughput. Names are Zipf
// over the zone plus a fixed share of out-of-zone names, which must come
// back REFUSED.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common.h"
#include "dns/message.h"
#include "dns/wire.h"
#include "util/rng.h"
#include "workload/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mecdns;

constexpr std::uint32_t kZoneNames = 2000;
constexpr std::uint32_t kOtherNames = 256;
constexpr double kOutOfZoneShare = 0.1;
constexpr double kZipfSkew = 0.9;
constexpr const char* kZone = "live.mec.test";
constexpr int kSockets = 4;
constexpr double kWarmupS = 1.0;
constexpr double kReferenceQps = 20000.0;
/// The reference step and the saturation phase last these shares of
/// --seconds.
constexpr double kReferenceShare = 0.25;
constexpr double kSaturationShare = 0.75;
/// Queries outstanding in the saturation phase, kInFlight / kSockets per
/// socket: enough to keep the single-threaded server always busy, few
/// enough that its socket buffer never overflows, so nothing is lost.
constexpr std::uint32_t kInFlight = 64;
/// Pre-drawn names for the saturation phase, used in a cycle.
constexpr std::size_t kSaturationNames = 1 << 20;
/// A query still unanswered kRetryNs after it was sent is sent again, as a
/// stub resolver would: a stall of the host can overflow the server's
/// socket buffer in the open-loop steps. Open-loop retransmits go out
/// kRetryNs, 2 x kRetryNs, ... after the due time, kRetries of them;
/// closed-loop ones after kRetryNs x 2^(tries so far), for as long as the
/// phase lasts. Every step keeps receiving up to kTimeoutNs after its last
/// send; a query unanswered by then has failed.
constexpr std::int64_t kRetryNs = 50'000'000;
constexpr int kRetries = 4;
constexpr std::int64_t kTimeoutNs = 1'000'000'000;
/// The measured steps are cut into windows: the CPU placement rotates at
/// each (see CpuSet), and latency, throughput and CPU cost are per window.
constexpr std::int64_t kWindowNs = 100'000'000;
/// Server spawns per run for setup_s: one takes ~15 ms, and the median of
/// five still spread 0.17 over ten runs.
constexpr int kSetups = 15;
constexpr std::size_t kMaxCaptured = 20000;

/// o<k>.<zone>, or o<k>.other.test outside the zone. (Built by appending:
/// GCC 12 misreports "literal" + std::string under -Wrestrict.)
std::string host_name(std::uint32_t k, const char* zone) {
  std::string name = std::to_string(k);
  name.insert(0, 1, 'o');
  name += '.';
  name += zone;
  return name;
}

std::string zone_name(std::uint32_t k) { return host_name(k, kZone); }

simnet::Ipv4Address zone_address(std::uint32_t k) {
  return simnet::Ipv4Address((10u << 24) | (64u << 16) | k);
}

// --- the server process ----------------------------------------------------

/// The child server: spawned with its stdout on a pipe, stopped with
/// SIGINT, and always reaped, on every path.
class Server {
 public:
  Server(const std::string& path, const std::string& records) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const std::string overload = std::to_string(100000000);
    std::vector<std::string> argv_s = {
        path,   "--port",         "0",       "--zone", kZone,
        "--ttl", "300",           "--records", records, "--overload-qps",
        overload};
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // If the benchmark dies first, so does the server.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv;
      for (auto& a : argv_s) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    const std::string line = read_until("LISTENING ", 10.0);
    const auto colon = line.rfind(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("server did not report its port");
    }
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ~Server() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGINT, then collects the teardown report and the exit status.
  /// Returns the server's output after LISTENING.
  std::string stop(int& exit_status) {
    kill(pid_, SIGINT);
    std::string text = read_until("", 10.0);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return text;
  }

 private:
  /// Reads until a line starting with `prefix` (returns that line) or, for
  /// an empty prefix, until EOF (returns everything read).
  std::string read_until(const std::string& prefix, double timeout_s) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (true) {
      if (!prefix.empty()) {
        std::size_t pos = 0;
        while (pos < buffer_.size()) {
          const std::size_t eol = buffer_.find('\n', pos);
          if (eol == std::string::npos) break;
          if (buffer_.compare(pos, prefix.size(), prefix) == 0) {
            std::string line = buffer_.substr(pos, eol - pos);
            buffer_.erase(0, eol + 1);
            return line;
          }
          pos = eol + 1;
        }
      }
      const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
      if (left_ms <= 0) throw std::runtime_error("server output timed out");
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
      char chunk[4096];
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        if (prefix.empty()) return buffer_;
        throw std::runtime_error("server exited before " + prefix);
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string buffer_;
};

/// `key=value` integers from the server's teardown lines.
std::map<std::string, std::uint64_t> parse_counters(const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq + 1 >= token.size()) continue;
    try {
      out[token.substr(0, eq)] = std::stoull(token.substr(eq + 1));
    } catch (const std::exception&) {
    }
  }
  return out;
}

/// CPU of a process from /proc: total on-CPU ns and the user/system split.
struct ProcCpu {
  double total_ns = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
};

/// The total comes from schedstat (ns resolution) where the kernel has it,
/// else from the stat ticks.
ProcCpu read_cpu(pid_t pid) {
  ProcCpu out;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close_paren = text.rfind(')');
  if (close_paren != std::string::npos) {
    std::istringstream rest(text.substr(close_paren + 2));
    std::string field;
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) out.user_s = std::stod(field) / tick;
      if (i == 15) out.sys_s = std::stod(field) / tick;
    }
  }
  std::ifstream sched("/proc/" + std::to_string(pid) + "/schedstat");
  if (!(sched >> out.total_ns)) out.total_ns = (out.user_s + out.sys_s) * 1e9;
  return out;
}

double cpu_ns(pid_t pid) { return read_cpu(pid).total_ns; }

// --- inputs ------------------------------------------------------------------

/// Query wire bytes (id 0) per name: the zone's names, then the others.
std::vector<std::vector<std::uint8_t>> encode_queries() {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint32_t k = 0; k < kZoneNames + kOtherNames; ++k) {
    const std::string name =
        k < kZoneNames ? zone_name(k) : host_name(k, "other.test");
    out.push_back(dns::encode(dns::make_query(
        0, dns::DnsName::must_parse(name), dns::RecordType::kA)));
  }
  return out;
}

std::uint16_t draw_name(util::Rng& rng, const workload::ZipfGenerator& zipf) {
  const bool other = rng.uniform() < kOutOfZoneShare;
  return static_cast<std::uint16_t>(
      other ? kZoneNames + rng.uniform_int(kOtherNames) : zipf.sample(rng));
}

/// One open-loop step's pre-drawn schedule: due offsets from the step
/// start and the name of each query.
struct Schedule {
  double seconds = 0.0;
  std::vector<std::int64_t> due_ns;
  std::vector<std::uint16_t> name;
};

Schedule draw_schedule(double rate, double seconds, std::uint64_t seed,
                       const workload::ZipfGenerator& zipf) {
  Schedule s;
  s.seconds = seconds;
  util::Rng rng(seed);
  const double end = seconds * 1e9;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e9;
    if (t >= end) break;
    s.due_ns.push_back(static_cast<std::int64_t>(t));
    s.name.push_back(draw_name(rng, zipf));
  }
  return s;
}

std::vector<std::uint16_t> draw_names(std::size_t count, std::uint64_t seed,
                                      const workload::ZipfGenerator& zipf) {
  util::Rng rng(seed);
  std::vector<std::uint16_t> out(count);
  for (auto& name : out) name = draw_name(rng, zipf);
  return out;
}

// --- the generator -------------------------------------------------------------

/// An open-loop step, as the generator measured it.
struct StepOutcome {
  std::uint64_t attempted = 0;     ///< queries due in the step
  std::uint64_t failed = 0;        ///< no answer, or not a correct one
  std::uint64_t wrong = 0;         ///< answered, but not correctly
  std::uint64_t retries = 0;       ///< retransmissions sent
  std::vector<double> latency_us;  ///< answered correctly, from due time
  /// Per kWindowNs window, by due time: latency percentiles and the
  /// server's CPU per query due in the window.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_cpu_us;
  double lag_p99_us = 0.0;  ///< generator send lateness
  double busy_ratio = 0.0;  ///< generator working time / step wall time
};

/// The closed-loop saturation phase.
struct SaturationOutcome {
  std::uint64_t sent = 0;     ///< distinct queries sent
  std::uint64_t answered = 0;  ///< answered correctly
  std::uint64_t wrong = 0;
  std::uint64_t failed = 0;  ///< no correct answer (wrong or unanswered)
  std::uint64_t retries = 0;
  /// Per full kWindowNs window: correct answers per second and server CPU
  /// per answer.
  std::vector<double> window_qps;
  std::vector<double> window_cpu_us;
  double busy_ratio = 0.0;  ///< generator working time / phase wall time
};

class Generator {
 public:
  Generator(std::uint16_t port, pid_t server, const CpuSet& cpus,
            const std::vector<std::vector<std::uint8_t>>& queries)
      : port_(port),
        server_(server),
        cpus_(cpus),
        queries_(queries),
        expected_(queries.size()) {
    for (auto& slots : slot_) slots.assign(65536, 0);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  ~Generator() { close_sockets(); }

  /// Sends `s` open-loop and collects answers until kTimeoutNs after the
  /// last due time (or until every query is answered). At every window
  /// boundary it samples the server's CPU and moves the server and itself
  /// to the next CPUs.
  StepOutcome run(const Schedule& s) {
    StepOutcome out;
    const std::size_t n = s.due_ns.size();
    answer_us_.assign(n, kUnanswered);
    std::vector<double> lag_us;
    lag_us.reserve(n);
    for (auto& slots : slot_) std::fill(slots.begin(), slots.end(), 0);
    step_ = &s;
    answered_ = 0;
    wrong_ = 0;

    // Fresh sockets per step: a late answer to an earlier step lands on a
    // closed port instead of matching a reused id.
    open_sockets();
    start_ = now_ns() + 1000000;
    const std::int64_t last_due = start_ + (n ? s.due_ns.back() : 0);
    const std::int64_t deadline = last_due + kTimeoutNs;
    const std::size_t n_windows = static_cast<std::size_t>(
        std::ceil(s.seconds * 1e9 / static_cast<double>(kWindowNs)));
    std::vector<double> cpu_marks = {cpu_ns(server_)};
    place();
    std::int64_t busy_ns = 0;
    std::size_t next = 0;
    std::size_t retry_next[kRetries] = {};
    while (true) {
      const std::int64_t now = now_ns();
      if (now >= deadline || (next == n && answered_ + wrong_ == n)) break;
      if (cpu_marks.size() <= n_windows &&
          now - start_ >= static_cast<std::int64_t>(cpu_marks.size()) * kWindowNs) {
        cpu_marks.push_back(cpu_ns(server_));
        place();
      }
      bool worked = false;
      while (next < n && start_ + s.due_ns[next] <= now) {
        send_query(next % kSockets, static_cast<std::uint16_t>(next / kSockets),
                   s.name[next]);
        slot_[next % kSockets][next / kSockets] =
            static_cast<std::uint32_t>(next + 1);
        lag_us.push_back(
            static_cast<double>(now_ns() - start_ - s.due_ns[next]) * 1e-3);
        ++next;
        worked = true;
      }
      for (int r = 0; r < kRetries; ++r) {
        std::size_t& i = retry_next[r];
        while (i < next && start_ + s.due_ns[i] + (r + 1) * kRetryNs <= now) {
          if (answer_us_[i] == kUnanswered) {
            send_query(i % kSockets, static_cast<std::uint16_t>(i / kSockets),
                       s.name[i]);
            ++out.retries;
            worked = true;
          }
          ++i;
        }
      }
      if (receive([this](std::uint32_t sock, const std::uint8_t* data,
                            std::size_t len) { handle(sock, data, len); })) {
        worked = true;
      }
      // Polling for the next due time is idle, not load.
      if (worked) busy_ns += now_ns() - now;
    }
    const std::int64_t wall_ns = now_ns() - start_;
    close_sockets();

    out.attempted = n;
    out.failed = n - answered_;
    out.wrong = wrong_;
    out.latency_us.reserve(answered_);
    std::vector<std::vector<double>> windows(n_windows);
    std::vector<std::size_t> due_in_window(n_windows, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto window = static_cast<std::size_t>(s.due_ns[i] / kWindowNs);
      ++due_in_window[window];
      const double us = answer_us_[i];
      if (us < 0.0) continue;
      out.latency_us.push_back(us);
      windows[window].push_back(us);
    }
    for (std::size_t w = 0; w < n_windows; ++w) {
      out.window_p99_us.push_back(percentile(windows[w], 99.0).value);
      out.window_p50_us.push_back(percentile(windows[w], 50.0).value);
      if (w + 1 < cpu_marks.size() && due_in_window[w] > 0) {
        out.window_cpu_us.push_back((cpu_marks[w + 1] - cpu_marks[w]) * 1e-3 /
                                    static_cast<double>(due_in_window[w]));
      }
    }
    out.lag_p99_us = percentile(lag_us, 99.0).value;
    out.busy_ratio = ratio(static_cast<double>(busy_ns),
                           static_cast<double>(wall_ns));
    return out;
  }

  /// Keeps kInFlight queries outstanding for `seconds`, names taken in turn
  /// from `names`: each correct answer sends the next query on its slot.
  /// Then stops sending and collects the outstanding answers, for at most
  /// kTimeoutNs. The CPU placement rotates at every window.
  SaturationOutcome saturate(double seconds,
                             const std::vector<std::uint16_t>& names) {
    static_assert((kInFlight & (kInFlight - 1)) == 0 && kInFlight % kSockets == 0);
    SaturationOutcome out;
    struct Slot {
      bool busy = false;
      std::uint16_t id = 0;  ///< (serial << log2(kInFlight)) | slot index
      std::uint16_t name = 0;
      int tries = 0;
      std::int64_t sent_ns = 0;
    };
    std::array<Slot, kInFlight> slots{};
    std::uint32_t outstanding = 0;
    std::size_t next_name = 0;
    auto issue = [&](std::uint32_t k) {
      Slot& slot = slots[k];
      slot.busy = true;
      slot.id = static_cast<std::uint16_t>(slot.id + kInFlight);
      slot.name = names[next_name++ % names.size()];
      slot.tries = 0;
      slot.sent_ns = now_ns();
      send_query(k % kSockets, slot.id, slot.name);
      ++out.sent;
      ++outstanding;
    };

    open_sockets();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t n_windows =
        static_cast<std::size_t>((end - start) / kWindowNs);
    std::vector<std::uint64_t> window_answers(n_windows, 0);
    std::vector<double> cpu_marks = {cpu_ns(server_)};
    place();
    for (std::uint32_t k = 0; k < kInFlight; ++k) {
      slots[k].id = static_cast<std::uint16_t>(k);
      issue(k);
    }
    bool sending = true;
    std::int64_t busy_ns = 0;
    std::int64_t last_scan = start;
    auto on_answer = [&](std::uint32_t sock, const std::uint8_t* data,
                         std::size_t len) {
      if (len < 12) return;
      const std::uint16_t id = static_cast<std::uint16_t>(data[0] << 8 | data[1]);
      const std::uint32_t k = id % kInFlight;
      Slot& slot = slots[k];
      // A duplicate answer to a retransmitted query, or a stray datagram.
      if (!slot.busy || slot.id != id || k % kSockets != sock) return;
      slot.busy = false;
      --outstanding;
      capture(data, len, captured_responses_);
      if (matches(slot.name, data, len)) {
        ++out.answered;
        const std::int64_t at = now_ns();
        const auto w = static_cast<std::size_t>((at - start) / kWindowNs);
        if (w < n_windows) ++window_answers[w];
      } else {
        ++out.wrong;
      }
      if (sending) issue(k);
    };
    std::int64_t drain_deadline = 0;
    while (true) {
      const std::int64_t now = now_ns();
      if (sending && now >= end) {
        sending = false;
        drain_deadline = now + kTimeoutNs;
      }
      if (!sending && (outstanding == 0 || now >= drain_deadline)) break;
      if (cpu_marks.size() <= n_windows &&
          now - start >= static_cast<std::int64_t>(cpu_marks.size()) * kWindowNs) {
        cpu_marks.push_back(cpu_ns(server_));
        place();
      }
      if (now - last_scan >= kRetryNs / 5) {
        last_scan = now;
        for (std::uint32_t k = 0; k < kInFlight; ++k) {
          Slot& slot = slots[k];
          if (!slot.busy ||
              now - slot.sent_ns < (kRetryNs << std::min(slot.tries, 4))) {
            continue;
          }
          ++slot.tries;
          slot.sent_ns = now;
          send_query(k % kSockets, slot.id, slot.name);
          ++out.retries;
        }
      }
      // It polls rather than sleeps, so the server never has to wake it.
      if (receive(on_answer)) busy_ns += now_ns() - now;
    }
    const std::int64_t wall_ns = now_ns() - start;
    close_sockets();

    out.failed = out.wrong + outstanding;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const double answers = static_cast<double>(window_answers[w]);
      out.window_qps.push_back(answers * 1e9 / static_cast<double>(kWindowNs));
      if (w + 1 < cpu_marks.size() && answers > 0) {
        out.window_cpu_us.push_back((cpu_marks[w + 1] - cpu_marks[w]) * 1e-3 /
                                    answers);
      }
    }
    out.busy_ratio = ratio(static_cast<double>(busy_ns),
                           static_cast<double>(wall_ns));
    return out;
  }

  const std::vector<std::vector<std::uint8_t>>& captured_queries() const {
    return captured_queries_;
  }
  const std::vector<std::vector<std::uint8_t>>& captured_responses() const {
    return captured_responses_;
  }
  std::uint64_t query_bytes() const { return query_bytes_; }

 private:
  static constexpr double kUnanswered = -1.0;
  static constexpr double kWrong = -2.0;

  /// Moves the server and this thread to the next CPUs, never the same one.
  void place() {
    cpus_.pin(server_, placement_);
    cpus_.pin(0, placement_ + cpus_.size() / 2);
    ++placement_;
  }

  /// Sends query `name` on socket `sock` with id `id`.
  void send_query(std::size_t sock, std::uint16_t id, std::uint16_t name) {
    std::uint8_t buf[512];
    const auto& q = queries_[name];
    std::memcpy(buf, q.data(), q.size());
    buf[0] = static_cast<std::uint8_t>(id >> 8);
    buf[1] = static_cast<std::uint8_t>(id & 0xff);
    if (send(fds_[sock], buf, q.size(), 0) == static_cast<ssize_t>(q.size())) {
      query_bytes_ += q.size();
      capture(buf, q.size(), captured_queries_);
    }
  }

  static void capture(const std::uint8_t* data, std::size_t len,
                      std::vector<std::vector<std::uint8_t>>& into) {
    if (into.size() < kMaxCaptured) into.emplace_back(data, data + len);
  }

  void open_sockets() {
    epoll_ = epoll_create1(0);
    sockaddr_in server{};
    server.sin_family = AF_INET;
    server.sin_port = htons(port_);
    server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (int i = 0; i < kSockets; ++i) {
      const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
      fds_[i] = fd;
      const int rcvbuf = 4 << 20;
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
      if (fd < 0 || epoll_ < 0 ||
          connect(fd, reinterpret_cast<sockaddr*>(&server), sizeof(server)) !=
              0) {
        throw std::runtime_error("generator socket setup failed");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev);
    }
  }

  void close_sockets() {
    for (int& fd : fds_) {
      if (fd >= 0) close(fd);
      fd = -1;
    }
    if (epoll_ >= 0) close(epoll_);
    epoll_ = -1;
  }

  /// Drains every readable socket into `on_datagram(socket, data, len)`;
  /// true if any datagram arrived.
  template <class F>
  bool receive(F&& on_datagram) {
    epoll_event events[kSockets];
    const int ready = epoll_wait(epoll_, events, kSockets, 0);
    for (int e = 0; e < ready; ++e) {
      const std::uint32_t sock = events[e].data.u32;
      while (true) {
        std::uint8_t buf[512];
        const ssize_t len = recv(fds_[sock], buf, sizeof(buf), 0);
        if (len < 0) break;
        on_datagram(sock, buf, static_cast<std::size_t>(len));
      }
    }
    return ready > 0;
  }

  /// An answer in an open-loop step.
  void handle(std::uint32_t sock, const std::uint8_t* data, std::size_t len) {
    if (len < 12) return;  // shorter than a DNS header
    const std::int64_t at = now_ns();
    const std::uint16_t id = static_cast<std::uint16_t>(data[0] << 8 | data[1]);
    const std::uint32_t slot = slot_[sock][id];
    if (slot == 0) return;  // a duplicate answer to a retransmitted query
    slot_[sock][id] = 0;
    const std::size_t i = slot - 1;
    capture(data, len, captured_responses_);
    if (!matches(step_->name[i], data, len)) {
      ++wrong_;
      answer_us_[i] = kWrong;
      return;
    }
    ++answered_;
    answer_us_[i] = static_cast<double>(at - start_ - step_->due_ns[i]) * 1e-3;
  }

  /// In-zone names must answer with the zone's A record, the others with
  /// REFUSED. The first answer per name is decoded and checked; later ones
  /// must repeat its bytes (after the id) exactly.
  bool matches(std::uint16_t name, const std::uint8_t* data, std::size_t len) {
    std::vector<std::uint8_t>& expected = expected_[name];
    if (!expected.empty()) {
      if (expected.size() == len && std::memcmp(expected.data() + 2, data + 2, len - 2) == 0) {
        return true;
      }
    }
    auto decoded = dns::decode(std::span<const std::uint8_t>(data, len));
    if (!decoded.ok()) return false;
    const dns::Message& m = decoded.value();
    auto query = dns::decode(queries_[name]);
    if (!query.ok() || m.questions.empty() ||
        !(m.questions[0].name == query.value().questions[0].name)) {
      return false;
    }
    bool ok = false;
    if (name < kZoneNames) {
      ok = m.header.rcode == dns::RCode::kNoError && m.first_a().has_value() &&
           *m.first_a() == zone_address(name);
    } else {
      ok = m.header.rcode == dns::RCode::kRefused && m.answers.empty();
    }
    if (ok && expected.empty()) expected.assign(data, data + len);
    return ok;
  }

  std::uint16_t port_;
  pid_t server_;
  const CpuSet& cpus_;
  std::size_t placement_ = 0;
  const std::vector<std::vector<std::uint8_t>>& queries_;
  std::vector<std::vector<std::uint8_t>> expected_;
  std::array<int, kSockets> fds_ = {-1, -1, -1, -1};
  std::array<std::vector<std::uint32_t>, kSockets> slot_;
  int epoll_ = -1;
  const Schedule* step_ = nullptr;
  std::vector<double> answer_us_;
  std::int64_t start_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t wrong_ = 0;
  std::uint64_t query_bytes_ = 0;
  std::vector<std::vector<std::uint8_t>> captured_queries_;
  std::vector<std::vector<std::uint8_t>> captured_responses_;
};

/// Sends one query and waits for a correct answer; true once it has one.
bool probe(std::uint16_t port, const std::vector<std::uint8_t>& query,
           simnet::Ipv4Address expect) {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  timeval tv{0, 20000};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in server{};
  server.sin_family = AF_INET;
  server.sin_port = htons(port);
  server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = false;
  if (connect(fd, reinterpret_cast<sockaddr*>(&server), sizeof(server)) == 0 &&
      send(fd, query.data(), query.size(), 0) ==
          static_cast<ssize_t>(query.size())) {
    std::uint8_t buf[512];
    const ssize_t len = recv(fd, buf, sizeof(buf), 0);
    if (len > 0) {
      auto decoded = dns::decode(std::span<const std::uint8_t>(buf, len));
      ok = decoded.ok() && decoded.value().first_a() == expect;
    }
  }
  close(fd);
  return ok;
}

/// Spawn to first correct answer, in seconds; -1 if none within 10 s.
double wait_ready(const Server& server,
                  const std::vector<std::vector<std::uint8_t>>& queries,
                  std::int64_t spawned_ns) {
  const std::int64_t deadline = spawned_ns + 10'000'000'000;
  while (now_ns() < deadline) {
    if (probe(server.port(), queries[0], zone_address(0))) {
      return static_cast<double>(now_ns() - spawned_ns) * 1e-9;
    }
  }
  return -1.0;
}

std::string failed_of(std::uint64_t failed, std::uint64_t attempted) {
  return "failed " + std::to_string(failed) + "/" + std::to_string(attempted);
}

}  // namespace

int run_live(const RunArgs& args) {
  const std::string w = args.workload;
  Outcome outcome;
  const CpuSet cpus;  // before anything is pinned
  if (args.server.empty()) {
    std::cerr << "error: live-udp needs --server <mecdns_livewire>\n";
    return 2;
  }

  // Inputs first, outside every timing.
  std::string records;
  for (std::uint32_t k = 0; k < kZoneNames; ++k) {
    if (k > 0) records += ',';
    records += zone_name(k) + "=" + zone_address(k).to_string();
  }
  const auto queries = encode_queries();
  const workload::ZipfGenerator zipf(kZoneNames, kZipfSkew);
  const std::uint64_t seed = args.seed * 1'000'003ULL;
  const Schedule warmup = draw_schedule(kReferenceQps, kWarmupS, seed, zipf);
  const Schedule reference = draw_schedule(
      kReferenceQps, args.seconds * kReferenceShare, seed + 1, zipf);
  const std::vector<std::uint16_t> saturation_names =
      draw_names(kSaturationNames, seed + 2, zipf);
  const double saturation_s = args.seconds * kSaturationShare;
  std::cout << w << "  seed " << args.seed << ", zone of " << kZoneNames
            << " A records + " << kOtherNames << " out-of-zone names ("
            << kOutOfZoneShare * 100 << "%), Zipf " << kZipfSkew
            << ", open-loop reference " << kReferenceQps << " q/s for "
            << reference.seconds << " s, then closed-loop with " << kInFlight
            << " in flight for " << saturation_s << " s, loopback UDP, "
            << kSockets << " generator sockets\n";

  std::vector<double> setups;
  for (int i = 1; i < kSetups; ++i) {
    const std::int64_t spawned = now_ns();
    Server server(args.server, records);
    setups.push_back(wait_ready(server, queries, spawned));
    int status = 0;
    server.stop(status);
    outcome.check(status == 0, "server exited nonzero");
  }
  const std::int64_t spawned = now_ns();
  Server server(args.server, records);
  setups.push_back(wait_ready(server, queries, spawned));
  for (double s : setups) outcome.check(s > 0.0, "server never answered a probe");

  Generator gen(server.port(), server.pid(), cpus, queries);
  const StepOutcome warm = gen.run(warmup);
  report(w, "warmup", median(warm.window_p99_us), "us",
         "median window p99; " + failed_of(warm.failed, warm.attempted));
  const StepOutcome ref = gen.run(reference);
  report(w, "reference", median(ref.window_p99_us), "us",
         "median window p99; retries " + std::to_string(ref.retries) + ", " +
             failed_of(ref.failed, ref.attempted));
  const SaturationOutcome sat = gen.saturate(saturation_s, saturation_names);
  report(w, "saturation", median(sat.window_qps), "queries/s",
         "median of " + std::to_string(sat.window_qps.size()) +
             " windows; mean " +
             format_number(static_cast<double>(sat.answered) / saturation_s) +
             ", retries " + std::to_string(sat.retries) + ", " +
             failed_of(sat.failed, sat.sent));

  const double rss = status_value("VmRSS", server.pid()) / 1024.0;
  const double peak_rss = status_value("VmHWM", server.pid()) / 1024.0;
  const ProcCpu cpu_end = read_cpu(server.pid());
  const double wakeups = status_value("voluntary_ctxt_switches", server.pid());
  int status = 0;
  const auto counters = parse_counters(server.stop(status));
  outcome.check(status == 0, "server exited nonzero (leaked sockets?)");
  auto counter = [&](const char* key) {
    const auto it = counters.find(key);
    outcome.check(it != counters.end(), std::string("server did not report ") + key);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double served = counter("queries");
  const double servfail = counter("servfail");
  const double shed = ratio(servfail, served);
  outcome.check(shed == 0.0, "the ingress guard shed queries below its threshold");

  outcome.attempted = warm.attempted + ref.attempted + sat.sent;
  outcome.failed = warm.failed + ref.failed + sat.failed;
  outcome.check(warm.wrong + ref.wrong + sat.wrong == 0,
                "answers that were not the zone's record or REFUSED");
  outcome.check(outcome.failed == 0, "lookups without a correct answer");

  std::vector<double> lat = ref.latency_us;
  const Percentile p50 = percentile(lat, 50.0);
  const Percentile p99 = percentile(lat, 99.0);
  outcome.check(p99.supported(), "too few samples beyond the reported p99");
  outcome.check(!ref.window_cpu_us.empty(), "no server CPU samples");
  outcome.check(!sat.window_qps.empty(), "no saturation windows");
  report(w, "fail_ratio", ratio(static_cast<double>(outcome.failed),
                                static_cast<double>(outcome.attempted)),
         "ratio", std::to_string(outcome.failed) + " of " +
                      std::to_string(outcome.attempted));
  report(w, "workload.gen.lag_p99_us", ref.lag_p99_us, "us", "reference step");
  report(w, "workload.gen.busy_ratio", ref.busy_ratio, "ratio", "reference step");
  report(w, "workload.gen.busy_ratio", sat.busy_ratio, "ratio",
         sat.busy_ratio > 0.9 ? "saturation; generator-bound: qps_wall is a "
                                "lower bound"
                              : "saturation; server-bound");
  // Latency at the reference rate, from each query's due time. A report,
  // not a result metric: the sim workloads have no wall-clock latency.
  report(w, "p50_us", p50.value, "us",
         std::to_string(p50.samples) + " samples, median window " +
             format_number(median(ref.window_p50_us)));
  report(w, "p99_us", p99.value, "us",
         std::to_string(p99.samples) + " samples, " +
             std::to_string(p99.beyond) + " beyond; median window " +
             format_number(median(ref.window_p99_us)));
  report(w, "saturation.cpu_us_per_query", median(sat.window_cpu_us), "us",
         "server, median window");

  auto& m = outcome.metrics;
  if (!args.trace) {
    m["setup_s"] = {median(setups), "s"};
    std::vector<double> window_qps = sat.window_qps;
    std::vector<double> window_cpu_us = ref.window_cpu_us;
    m["qps_wall"] = {percentile(window_qps, kFastPercentile).value, "queries/s"};
    m["cpu_us_per_query"] = {
        percentile(window_cpu_us, 100.0 - kFastPercentile).value, "us"};
    m["rss_mb"] = {rss, "MiB"};
    report(w, "setup_s", m["setup_s"].value, "s",
           "median of " + std::to_string(kSetups) + " spawns to first answer");
    report(w, "qps_wall", m["qps_wall"].value, "queries/s",
           "closed loop, " + format_number(kFastPercentile) +
               "th percentile of " + std::to_string(window_qps.size()) +
               " windows of " + format_number(kWindowNs * 1e-6) +
               " ms; median " + format_number(median(sat.window_qps)));
    report(w, "cpu_us_per_query", m["cpu_us_per_query"].value, "us",
           "server, " + format_number(100.0 - kFastPercentile) +
               "th percentile of " + std::to_string(window_cpu_us.size()) +
               " windows of " + format_number(kWindowNs * 1e-6) +
               " ms at the reference rate; median " +
               format_number(median(ref.window_cpu_us)));
    report(w, "rss_mb", rss, "MiB",
           "server VmRSS after the saturation phase; VmHWM " +
               format_number(peak_rss));
  } else {
    const double q = served;
    const double loop_events = counter("timers_fired") + counter("packets_received");
    const double msgs = counter("dns_encoded") + counter("dns_decoded");
    const double wire =
        counter("bytes_encoded") + static_cast<double>(gen.query_bytes());
    std::vector<std::vector<std::uint8_t>> seen = gen.captured_queries();
    seen.insert(seen.end(), gen.captured_responses().begin(),
                gen.captured_responses().end());
    const CodecReplay codec = replay_codec(seen);
    const double sys_us = ratio(cpu_end.sys_s * 1e6, q);
    const double user_us = ratio(cpu_end.user_s * 1e6, q);
    const double cpu_per_query_ns = ratio(cpu_end.total_ns, q);
    const double codec_ns = ratio(counter("dns_decoded") * codec.decode_ns +
                                      counter("dns_encoded") * codec.encode_ns,
                                  q);
    const double unattributed = cpu_per_query_ns - sys_us * 1e3 - codec_ns;
    report(w, "netio.sys_us_per_query", sys_us, "us", "server stime / queries");
    report(w, "dns.user_us_per_query", user_us, "us", "server utime / queries");
    report(w, "netio.timers_per_query", ratio(counter("timers_fired"), q), "count");
    report(w, "netio.wakeups_per_query", ratio(wakeups, q), "count");
    report(w, "netio.packets_per_query",
           ratio(counter("packets_received") + counter("packets_sent"), q), "count");
    report(w, "mec.guard.shed_ratio", shed, "ratio");
    report(w, "dns.codec.msgs_per_query", ratio(msgs, q), "count");
    report(w, "dns.codec.wire_bytes_per_query", ratio(wire, q), "B");
    report(w, "dns.codec.encode_ns", codec.encode_ns, "ns");
    report(w, "dns.codec.decode_ns", codec.decode_ns, "ns");
    report(w, "server_cpu_ns_per_query", cpu_per_query_ns, "ns");
    report(w, "unattributed_ns_per_query", unattributed, "ns",
           "server CPU - sys - codec replay");
    m["events_per_query"] = {ratio(loop_events, q), "count"};
    m["loop.ns_per_event"] = {ratio(cpu_end.total_ns, loop_events), "ns"};
    m["dns.codec.msgs_per_query"] = {ratio(msgs, q), "count"};
    m["dns.codec.wire_bytes_per_query"] = {ratio(wire, q), "B"};
    m["dns.codec.encode_ns"] = {codec.encode_ns, "ns"};
    m["dns.codec.decode_ns"] = {codec.decode_ns, "ns"};
    m["user_us_per_query"] = {user_us, "us"};
    m["unattributed_ns_per_query"] = {unattributed, "ns"};
  }
  return finish(outcome);
}

}  // namespace perfbench
