// Traffic Monitor: cache-server health probing.
//
// Apache Traffic Control pairs its Traffic Router with a Traffic Monitor
// that polls every cache and feeds availability into routing decisions.
// TrafficMonitor probes each registered cache over the content protocol at
// a fixed interval; after `down_threshold` consecutive failures the cache
// is reported unhealthy to the router, and after `up_threshold` consecutive
// successes it is restored — so cache failures heal without operator
// action, which is what makes a small MEC cache group dependable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdn/cache_server.h"
#include "cdn/traffic_router.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace mecdns::cdn {

class TrafficMonitor {
 public:
  struct Config {
    simnet::SimTime probe_interval = simnet::SimTime::seconds(1);
    simnet::SimTime probe_timeout = simnet::SimTime::millis(400);
    int down_threshold = 2;  ///< consecutive failures before marking down
    int up_threshold = 2;    ///< consecutive successes before marking up
    /// Probe rounds to run; 0 = keep probing until stop(). A bounded count
    /// lets Simulator::run() drain; unbounded monitors need run_until().
    std::size_t rounds = 0;
  };

  /// Probes run on `runtime`; health transitions are pushed to `router`.
  TrafficMonitor(netio::Runtime& runtime, TrafficRouter& router,
                 Config config);

  /// Registers a cache to watch. `probe_url` should be cheap and always
  /// present (a health object warmed on every cache).
  void watch(const std::string& group, const std::string& cache_name,
             simnet::Endpoint endpoint, Url probe_url);

  /// Starts the periodic probing loop.
  void start();
  /// Cancels the next round (in-flight probes still complete).
  void stop() { rt_.cancel(next_round_); }

  ~TrafficMonitor() { stop(); }

  bool healthy(const std::string& cache_name) const;
  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t probes_sent() const { return probes_sent_; }

  /// Health transitions become journal events: cache_drain when a cache is
  /// taken out of rotation, cache_readmit when it returns (detail = cache
  /// name).
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

  /// Snapshots probe/transition counters plus a per-cache health gauge
  /// (1 = healthy) into `registry` under `prefix`.
  void export_metrics(obs::Registry& registry,
                      const std::string& prefix = "monitor.") const {
    registry.add(prefix + "probes_sent", probes_sent_);
    registry.add(prefix + "transitions", transitions_);
    for (const auto& watched : watched_) {
      registry.set_gauge(prefix + "healthy." + watched.name,
                         watched.healthy ? 1.0 : 0.0);
    }
  }

 private:
  struct Watched {
    std::string group;
    std::string name;
    simnet::Endpoint endpoint;
    Url probe_url;
    bool healthy = true;
    int failures = 0;
    int successes = 0;
  };

  void probe_all();
  void on_result(std::size_t index, bool success);

  netio::Runtime& rt_;
  TrafficRouter& router_;
  Config config_;
  std::unique_ptr<ContentClient> client_;
  std::vector<Watched> watched_;
  bool started_ = false;
  std::size_t rounds_done_ = 0;
  netio::TimerId next_round_ = netio::kNoTimer;
  std::uint64_t transitions_ = 0;
  std::uint64_t probes_sent_ = 0;
  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;
};

}  // namespace mecdns::cdn
