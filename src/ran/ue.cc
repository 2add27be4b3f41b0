#include "ran/ue.h"

namespace mecdns::ran {

UserEquipment::UserEquipment(simnet::Network& net, RanSegment& segment,
                             std::string name, simnet::Ipv4Address addr,
                             simnet::Endpoint dns_server,
                             dns::DnsTransport::Options dns_options)
    : net_(net), name_(std::move(name)), addr_(addr) {
  node_ = segment.attach_ue(name_, addr);
  resolver_ = std::make_unique<dns::StubResolver>(net_.runtime(node_),
                                                  dns_server, dns_options);
  content_ = std::make_unique<cdn::ContentClient>(net_.runtime(node_));
}

void UserEquipment::resolve_and_fetch(const cdn::Url& url,
                                      FetchCallback callback) {
  attempt_fetch(url, fetch_retries_, simnet::SimTime::zero(),
                std::move(callback));
}

void UserEquipment::attempt_fetch(const cdn::Url& url,
                                  std::size_t retries_left,
                                  simnet::SimTime accumulated,
                                  FetchCallback callback) {
  resolver_->resolve(
      url.host, dns::RecordType::kA,
      [this, url, retries_left, accumulated, callback = std::move(callback)](
          const dns::StubResult& dns_result) {
        FetchOutcome outcome;
        outcome.dns_latency = dns_result.latency;
        if (!dns_result.ok || !dns_result.address.has_value()) {
          outcome.error = dns_result.ok ? "no A record in answer"
                                        : dns_result.error;
          outcome.total = accumulated + dns_result.latency;
          finish_or_retry(url, retries_left, std::move(outcome),
                          std::move(callback));
          return;
        }
        outcome.server = *dns_result.address;
        content_->get(
            simnet::Endpoint{*dns_result.address, cdn::kContentPort}, url,
            [this, url, retries_left, accumulated, outcome,
             callback = std::move(callback)](
                util::Result<cdn::ContentResponse> response,
                simnet::SimTime fetch_latency) mutable {
              outcome.fetch_latency = fetch_latency;
              outcome.total =
                  accumulated + outcome.dns_latency + fetch_latency;
              if (!response.ok()) {
                outcome.error = response.error().message;
              } else {
                outcome.response = response.value();
                outcome.ok = outcome.response.status == 200;
                if (!outcome.ok) {
                  outcome.error = "status " +
                                  std::to_string(outcome.response.status);
                }
              }
              finish_or_retry(url, retries_left, std::move(outcome),
                              std::move(callback));
            });
      });
}

void UserEquipment::finish_or_retry(const cdn::Url& url,
                                    std::size_t retries_left,
                                    FetchOutcome outcome,
                                    FetchCallback callback) {
  if (outcome.ok || retries_left == 0) {
    callback(outcome);
    return;
  }
  ++fetch_retries_used_;
  // A fresh resolution: by now the router may have drained the dead cache
  // or the stale cached answer expired. Latency keeps accumulating.
  attempt_fetch(url, retries_left - 1, outcome.total, std::move(callback));
}

}  // namespace mecdns::ran
