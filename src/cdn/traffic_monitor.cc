#include "cdn/traffic_monitor.h"

#include "util/log.h"

namespace mecdns::cdn {

TrafficMonitor::TrafficMonitor(netio::Runtime& runtime, TrafficRouter& router,
                               Config config)
    : rt_(runtime), router_(router), config_(config) {
  client_ = std::make_unique<ContentClient>(runtime);
}

void TrafficMonitor::watch(const std::string& group,
                           const std::string& cache_name,
                           simnet::Endpoint endpoint, Url probe_url) {
  watched_.push_back(Watched{group, cache_name, endpoint,
                             std::move(probe_url), true, 0, 0});
}

void TrafficMonitor::start() {
  if (started_) return;
  started_ = true;
  probe_all();
}

void TrafficMonitor::probe_all() {
  if (config_.rounds != 0 && rounds_done_ >= config_.rounds) return;
  ++rounds_done_;
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    ++probes_sent_;
    client_->get(
        watched_[i].endpoint, watched_[i].probe_url,
        [this, i](util::Result<ContentResponse> result, simnet::SimTime) {
          on_result(i, result.ok() && result.value().status == 200);
        },
        config_.probe_timeout);
  }
  next_round_ =
      rt_.schedule_after(config_.probe_interval, [this] { probe_all(); });
}

void TrafficMonitor::on_result(std::size_t index, bool success) {
  Watched& cache = watched_[index];
  if (success) {
    cache.failures = 0;
    if (!cache.healthy && ++cache.successes >= config_.up_threshold) {
      cache.healthy = true;
      cache.successes = 0;
      ++transitions_;
      if (journal_ != nullptr) {
        journal_->record(rt_.now(), obs::JournalKind::kCacheReadmit,
                         journal_cell_, cache.name.c_str());
      }
      MECDNS_LOG(kInfo, "monitor") << cache.name << " is healthy again";
      router_.set_cache_healthy(cache.group, cache.name, true);
    }
  } else {
    cache.successes = 0;
    if (cache.healthy && ++cache.failures >= config_.down_threshold) {
      cache.healthy = false;
      cache.failures = 0;
      ++transitions_;
      if (journal_ != nullptr) {
        journal_->record(rt_.now(), obs::JournalKind::kCacheDrain,
                         journal_cell_, cache.name.c_str(),
                         static_cast<std::uint64_t>(config_.down_threshold));
      }
      MECDNS_LOG(kWarn, "monitor") << cache.name << " marked down after "
                                   << config_.down_threshold << " failures";
      router_.set_cache_healthy(cache.group, cache.name, false);
    }
  }
}

bool TrafficMonitor::healthy(const std::string& cache_name) const {
  for (const auto& cache : watched_) {
    if (cache.name == cache_name) return cache.healthy;
  }
  return false;
}

}  // namespace mecdns::cdn
