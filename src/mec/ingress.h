// Ingress-load monitoring and the overload fallback policy.
//
// §3 P1: "The MEC orchestrator, which has access to monitoring statistics
// of the ingress network load to the MEC DNS, can simply switch (or only
// unicast) to the provider's L-DNS during high ingress (above a threshold),
// or deploy other more sophisticated mitigation policies." IngressMonitor
// keeps a sliding-window query rate; OverloadGuardPlugin sits first in the
// MEC DNS chain and sheds load above the threshold, so MEC-CDN degrades to
// the provider path instead of becoming a DoS amplifier.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "dns/plugin.h"
#include "obs/journal.h"
#include "simnet/time.h"

namespace mecdns::mec {

/// Sliding-window count of admitted queries. Each arrival is kept as a
/// 32-bit nanosecond offset from a base time, so the guard's memory at a
/// given rate is 4 bytes per query in the window, not 8. Windows must be
/// shorter than 2^32 ns (~4.29 s); the constructor rejects longer ones.
class IngressMonitor {
 public:
  explicit IngressMonitor(
      simnet::SimTime window = simnet::SimTime::seconds(1));

  void record(simnet::SimTime now);

  /// Events within the window ending at `now` (an event exactly at
  /// `now - window` still counts).
  std::size_t rate(simnet::SimTime now) const;

  simnet::SimTime window() const { return window_; }

 private:
  void prune(simnet::SimTime now) const;
  /// Moves the base so that every kept offset and `now` fit in 32 bits.
  void rebase(simnet::SimTime now);

  simnet::SimTime window_;
  simnet::SimTime base_;
  /// Arrival offsets from base_, in the order they were recorded.
  mutable std::deque<std::uint32_t> offsets_;
};

/// What the guard does with traffic above the threshold.
enum class OverloadAction {
  kRefuse,  ///< answer REFUSED; multicast/fallback clients use provider L-DNS
  /// Answer SERVFAIL: DnsTransport fails a SERVFAIL over to the next
  /// fallback server, so clients with a provider fallback fail over within
  /// one RTT instead of waiting out the timeout ladder — the overload-safe
  /// shed policy.
  kServFail,
};

class OverloadGuardPlugin : public dns::Plugin {
 public:
  OverloadGuardPlugin(IngressMonitor& monitor, std::size_t threshold_qps,
                      OverloadAction action = OverloadAction::kRefuse)
      : monitor_(monitor), threshold_(threshold_qps), action_(action) {}

  std::string name() const override { return "overload-guard"; }
  /// Admits the query (passes it on, false) or sheds it (claims it, true).
  bool serve(const dns::Query& query, const dns::QueryContext& ctx,
             Respond& respond) override;

  /// Recovery hysteresis, mirroring cdn::TrafficMonitor's up/down counts:
  /// once tripped, the guard keeps shedding until the ingress rate has
  /// stayed below the threshold for `windows` consecutive monitor windows.
  /// 0 (the default) is the legacy stateless comparison, which flaps
  /// admit/shed right at the threshold.
  void set_recovery_windows(std::size_t windows) {
    recovery_windows_ = windows;
  }

  /// True while the guard is in its tripped (shedding) state. Only
  /// meaningful with recovery hysteresis enabled.
  bool shedding() const { return shedding_; }
  /// Times the guard tripped into / recovered out of shedding.
  std::uint64_t trips() const { return trips_; }
  std::uint64_t recoveries() const { return recoveries_; }

  std::uint64_t shed() const { return shed_; }
  std::uint64_t admitted() const { return admitted_; }

  /// Admission control against a bounded server queue: when `probe()`
  /// (typically DnsServer::queue_depth) reaches `limit`, the query is shed
  /// with a deterministic answer instead of being served. A saturated FIFO
  /// means the backlog is already rotting toward client timeouts; cheap
  /// sheds drain it orders of magnitude faster than full service would,
  /// and tell the client immediately rather than letting the overflow drop
  /// them silently.
  void set_queue_probe(std::function<std::size_t()> probe,
                       std::size_t limit) {
    queue_probe_ = std::move(probe);
    queue_limit_ = limit;
  }
  std::uint64_t shed_queue_full() const { return shed_queue_full_; }

  /// Journals guard *transitions* only (trip, recover, and the edge into
  /// queue-probe shedding), never per-query sheds — the journal is a
  /// control-plane recorder and this plugin sits on the query hot path.
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

 private:
  /// Answers a shed query per the action; always claims it.
  bool shed_one(const dns::Query& query, Respond& respond);

  IngressMonitor& monitor_;
  std::size_t threshold_;
  OverloadAction action_;
  std::function<std::size_t()> queue_probe_;
  std::size_t queue_limit_ = 0;
  std::uint64_t shed_queue_full_ = 0;
  std::size_t recovery_windows_ = 0;
  bool shedding_ = false;
  /// When (while shedding) the rate was first observed below threshold;
  /// cleared whenever it climbs back over.
  std::optional<simnet::SimTime> below_since_;
  std::uint64_t trips_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t admitted_ = 0;
  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;
  /// True between the first queue-full shed and the next query that finds
  /// queue headroom again; journals the transition, not every shed.
  bool queue_full_active_ = false;
};

}  // namespace mecdns::mec
