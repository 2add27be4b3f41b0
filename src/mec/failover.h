// L-DNS liveness probing and failover — the paper's availability mechanism
// generalized from overload to crash.
//
// §3 falls back to the provider L-DNS when the MEC L-DNS is overloaded;
// the same escape hatch must fire when the MEC L-DNS *dies* (node crash,
// partition). LdnsFailover plays the orchestrator's health-checker: it
// DNS-probes the primary L-DNS at a fixed interval from a vantage node,
// and after `down_threshold` consecutive probe timeouts invokes the switch
// handler with the fallback endpoint (re-targeting the UE population's
// resolver). Once `up_threshold` consecutive probes answer again, it
// switches back. Any response — even REFUSED — counts as alive: liveness,
// not correctness, is being probed. The consecutive-count hysteresis
// mirrors cdn::TrafficMonitor's, so a single lost probe never flaps the
// fleet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dns/message.h"
#include "dns/transport.h"
#include "obs/journal.h"
#include "netio/runtime.h"
#include "simnet/time.h"

namespace mecdns::mec {

class LdnsFailover {
 public:
  struct Config {
    simnet::Endpoint primary;   ///< the MEC L-DNS being watched
    simnet::Endpoint fallback;  ///< the provider L-DNS to fail over to
    simnet::SimTime probe_interval = simnet::SimTime::millis(500);
    simnet::SimTime probe_timeout = simnet::SimTime::millis(400);
    /// Consecutive probe timeouts before declaring the primary dead.
    int down_threshold = 2;
    /// Consecutive probe answers before re-admitting the primary.
    int up_threshold = 2;
    /// Probe qname; the answer's rcode is irrelevant (REFUSED is alive).
    dns::DnsName probe_name =
        dns::DnsName::must_parse("health.mec-probe.test");
  };

  /// One resolver re-targeting decision, for time-to-recover accounting.
  struct Switch {
    simnet::SimTime at;
    bool to_fallback = false;  ///< false = back to the primary
  };

  /// Called on every switch with the endpoint clients should now use.
  using SwitchHandler =
      std::function<void(const simnet::Endpoint& target, bool to_fallback)>;

  /// Probes are sent from `runtime` (the orchestrator's vantage point).
  LdnsFailover(netio::Runtime& runtime, Config config);
  ~LdnsFailover();
  LdnsFailover(const LdnsFailover&) = delete;
  LdnsFailover& operator=(const LdnsFailover&) = delete;

  void set_on_switch(SwitchHandler handler) { on_switch_ = std::move(handler); }

  /// Each switch decision becomes a journal event: ldns_failover when
  /// re-targeting clients at the fallback, ldns_restore when back on the
  /// primary (a = probe failures so far).
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

  /// Schedules `rounds` probes, one per probe_interval, starting one
  /// interval from now. Bounded so simulations still drain their queue.
  void start(std::size_t rounds);

  bool on_fallback() const { return on_fallback_; }
  const Config& config() const { return config_; }
  const std::vector<Switch>& switches() const { return switches_; }
  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t probe_failures() const { return probe_failures_; }

 private:
  void probe(std::size_t remaining);
  void on_result(bool alive);

  netio::Runtime& rt_;
  Config config_;
  dns::DnsTransport transport_;
  std::shared_ptr<const dns::DnsTransport::Options> probe_options_;
  SwitchHandler on_switch_;
  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;
  netio::TimerId next_probe_ = netio::kNoTimer;
  bool on_fallback_ = false;
  int fail_streak_ = 0;
  int ok_streak_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probe_failures_ = 0;
  std::vector<Switch> switches_;
};

}  // namespace mecdns::mec
