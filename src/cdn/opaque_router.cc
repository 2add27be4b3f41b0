#include "cdn/opaque_router.h"

#include <stdexcept>

namespace mecdns::cdn {

OpaqueCdnRouter::OpaqueCdnRouter(netio::Runtime& runtime, std::string name,
                                 simnet::LatencyModel processing_delay,
                                 dns::DnsName domain, std::uint64_t seed,
                                 simnet::Ipv4Address addr)
    : dns::DnsServer(runtime, std::move(name), processing_delay,
                     dns::kDnsPort, addr),
      domain_(std::move(domain)), rng_(seed) {}

std::size_t OpaqueCdnRouter::add_pool(std::string provider,
                                      simnet::Cidr range) {
  pools_.push_back(Pool{std::move(provider), range});
  return pools_.size() - 1;
}

void OpaqueCdnRouter::add_resolver_class(simnet::Cidr subnet,
                                         std::string cls) {
  classes_.emplace_back(subnet, std::move(cls));
}

void OpaqueCdnRouter::set_weights(const std::string& cls,
                                  std::vector<double> weights) {
  if (weights.size() != pools_.size()) {
    throw std::invalid_argument("weight count must equal pool count");
  }
  weights_[cls] = std::move(weights);
}

std::string OpaqueCdnRouter::classify(simnet::Ipv4Address resolver) const {
  const std::pair<simnet::Cidr, std::string>* best = nullptr;
  for (const auto& entry : classes_) {
    if (!entry.first.contains(resolver)) continue;
    if (best == nullptr ||
        entry.first.prefix_len() > best->first.prefix_len()) {
      best = &entry;
    }
  }
  return best == nullptr ? "" : best->second;
}

const util::FrequencyTable& OpaqueCdnRouter::distribution(
    const std::string& cls) const {
  static const util::FrequencyTable kEmpty;
  const auto it = distributions_.find(cls);
  return it == distributions_.end() ? kEmpty : it->second;
}

void OpaqueCdnRouter::handle(const dns::Query& query,
                             const dns::QueryContext& ctx,
                             Responder&& respond) {
  const dns::Question& q = query.question;
  if (!q.name.is_subdomain_of(domain_)) {
    respond(dns::make_response(query, dns::RCode::kRefused));
    return;
  }
  if (pools_.empty()) {
    respond(dns::make_response(query, dns::RCode::kServFail));
    return;
  }
  if (q.type != dns::RecordType::kA && q.type != dns::RecordType::kAny) {
    respond(dns::make_response(query));  // NODATA
    return;
  }

  const std::string cls = classify(ctx.client.addr);
  auto weight_it = weights_.find(cls);
  if (weight_it == weights_.end()) weight_it = weights_.find("");
  std::size_t pool_index;
  if (weight_it == weights_.end()) {
    pool_index = rng_.uniform_int(pools_.size());
  } else {
    pool_index = rng_.weighted_index(weight_it->second);
  }
  const Pool& pool = pools_[pool_index];
  // Draw a host within the pool's CIDR (skipping .0 network addresses).
  const std::uint64_t hosts = pool.range.size();
  const std::uint32_t offset =
      hosts <= 2 ? 1
                 : 1 + static_cast<std::uint32_t>(rng_.uniform_int(hosts - 2));
  const simnet::Ipv4Address answer = pool.range.host(offset);

  distributions_[cls].add(pool_label(pool));

  dns::Message response = dns::make_response(query);
  response.header.aa = true;
  response.answers.push_back(dns::make_a(q.name, answer, answer_ttl_));
  respond(std::move(response));
}

}  // namespace mecdns::cdn
