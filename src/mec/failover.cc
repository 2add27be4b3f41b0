#include "mec/failover.h"

#include <utility>

#include "util/log.h"

namespace mecdns::mec {

LdnsFailover::LdnsFailover(netio::Runtime& runtime, Config config)
    : rt_(runtime),
      config_(std::move(config)),
      transport_(runtime, /*id_seed=*/0x1d5f) {
  dns::DnsTransport::Options options;
  options.timeout = config_.probe_timeout;
  probe_options_ =
      std::make_shared<const dns::DnsTransport::Options>(std::move(options));
}

LdnsFailover::~LdnsFailover() { rt_.cancel(next_probe_); }

void LdnsFailover::start(std::size_t rounds) {
  if (rounds == 0) return;
  next_probe_ = rt_.schedule_after(config_.probe_interval,
                                   [this, rounds] { probe(rounds - 1); });
}

void LdnsFailover::probe(std::size_t remaining) {
  ++probes_sent_;
  dns::Message query =
      dns::make_query(0, config_.probe_name, dns::RecordType::kA);
  // The transport is a member: destroying it cancels its timers, so this
  // callback never outlives `this`.
  transport_.query(config_.primary, std::move(query), probe_options_,
                   [this](util::Result<dns::Message> result, simnet::SimTime) {
                     on_result(result.ok());
                   });
  start(remaining);
}

void LdnsFailover::on_result(bool alive) {
  if (!alive) {
    ++probe_failures_;
    ok_streak_ = 0;
    if (!on_fallback_ && ++fail_streak_ >= config_.down_threshold) {
      on_fallback_ = true;
      fail_streak_ = 0;
      switches_.push_back(Switch{rt_.now(), true});
      if (journal_ != nullptr) {
        journal_->record(rt_.now(), obs::JournalKind::kLdnsFailover,
                         journal_cell_, "primary dead, using fallback",
                         probe_failures_);
      }
      MECDNS_LOG(kInfo, "ldns-failover")
          << "primary L-DNS dead; switching clients to fallback";
      if (on_switch_) on_switch_(config_.fallback, true);
    }
    return;
  }
  fail_streak_ = 0;
  if (on_fallback_ && ++ok_streak_ >= config_.up_threshold) {
    on_fallback_ = false;
    ok_streak_ = 0;
    switches_.push_back(Switch{rt_.now(), false});
    if (journal_ != nullptr) {
      journal_->record(rt_.now(), obs::JournalKind::kLdnsRestore,
                       journal_cell_, "primary recovered",
                       probe_failures_);
    }
    MECDNS_LOG(kInfo, "ldns-failover")
        << "primary L-DNS recovered; switching clients back";
    if (on_switch_) on_switch_(config_.primary, false);
  }
}

}  // namespace mecdns::mec
