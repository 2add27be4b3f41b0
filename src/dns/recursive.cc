#include "dns/recursive.h"

#include <algorithm>

#include "util/log.h"

namespace mecdns::dns {

RecursiveResolver::RecursiveResolver(netio::Runtime& runtime,
                                     std::string name,
                                     simnet::LatencyModel processing_delay,
                                     Config config, simnet::Ipv4Address addr)
    : DnsServer(runtime, std::move(name), processing_delay, kDnsPort, addr),
      config_(std::move(config)), cache_(config_.cache_entries) {
  transport_ = std::make_unique<DnsTransport>(runtime);
  upstream_options_ =
      std::make_shared<const DnsTransport::Options>(config_.upstream);
}

void RecursiveResolver::handle(const Query& query,
                               const QueryContext& /*ctx*/,
                               Responder&& respond) {
  const Question& q = query.question;

  auto job = std::make_shared<Job>();
  job->qname = q.name;
  job->qtype = q.type;
  job->budget = std::make_shared<int>(config_.query_budget);
  auto done = [query = query, respond = std::move(respond)](
                  RCode rcode, std::shared_ptr<Job> finished) {
    Message response = make_response(query, rcode);
    response.header.ra = true;
    response.answers = std::move(finished->answers);
    respond(std::move(response));
  };
  static_assert(Job::Done::stores_inline<decltype(done)>);
  job->done = std::move(done);
  resolve(std::move(job));
}

void RecursiveResolver::resolve(std::shared_ptr<Job> job) {
  // 1. Serve from cache, following cached CNAME chains.
  while (true) {
    auto cached = cache_.lookup(job->qname, job->qtype, now());
    if (cached.has_value()) {
      if (cached->negative) {
        job->done(cached->rcode, job);
        return;
      }
      job->answers.insert(job->answers.end(), cached->records.begin(),
                          cached->records.end());
      job->done(RCode::kNoError, job);
      return;
    }
    if (job->qtype != RecordType::kCname) {
      auto cname = cache_.lookup(job->qname, RecordType::kCname,
                                 now());
      if (cname.has_value() && !cname->negative && !cname->records.empty()) {
        job->answers.insert(job->answers.end(), cname->records.begin(),
                            cname->records.end());
        const auto* target =
            std::get_if<CnameRecord>(&cname->records.front().rdata);
        if (target == nullptr || ++job->cname_hops > config_.max_cname_chain) {
          job->done(RCode::kServFail, job);
          return;
        }
        job->qname = target->target;
        continue;
      }
    }
    break;
  }

  // 2. Find servers to ask.
  DnsName glueless;
  std::vector<simnet::Endpoint> servers =
      candidate_servers(job->qname, &glueless);
  if (servers.empty()) {
    if (glueless.is_root()) {
      job->done(RCode::kServFail, job);
      return;
    }
    // Resolve a glue-less nameserver's address first, then retry.
    auto sub = std::make_shared<Job>();
    sub->qname = glueless;
    sub->qtype = RecordType::kA;
    sub->budget = job->budget;
    sub->done = [this, job](RCode rcode, std::shared_ptr<Job> finished) {
      if (rcode != RCode::kNoError || finished->answers.empty()) {
        job->done(RCode::kServFail, job);
        return;
      }
      resolve(job);  // glue now cached; candidate_servers will find it
    };
    resolve(std::move(sub));
    return;
  }
  query_servers(std::move(job), std::move(servers), 0);
}

std::vector<simnet::Endpoint> RecursiveResolver::candidate_servers(
    const DnsName& qname, DnsName* glueless) {
  *glueless = DnsName::root();
  // Walk from the most specific cached delegation up to the root.
  DnsName zone = qname;
  while (true) {
    const auto it = delegations_.find(zone);
    if (it != delegations_.end()) {
      std::vector<simnet::Endpoint> servers;
      DnsName first_unresolved = DnsName::root();
      for (const DnsName& ns : it->second) {
        auto cached = cache_.lookup(ns, RecordType::kA, now());
        if (cached.has_value() && !cached->negative) {
          for (const auto& rr : cached->records) {
            if (const auto* a = std::get_if<ARecord>(&rr.rdata)) {
              servers.push_back({a->address, kDnsPort});
            }
          }
        } else if (first_unresolved.is_root()) {
          first_unresolved = ns;
        }
      }
      if (!servers.empty()) return servers;
      if (!first_unresolved.is_root() && !(first_unresolved == qname)) {
        *glueless = first_unresolved;
        return {};
      }
      // Delegation known but unusable: fall through toward the root.
    }
    if (zone.is_root()) break;
    zone = zone.parent();
  }
  return config_.root_servers;
}

void RecursiveResolver::query_servers(std::shared_ptr<Job> job,
                                      std::vector<simnet::Endpoint> servers,
                                      std::size_t index) {
  if (index >= servers.size()) {
    job->done(RCode::kServFail, job);
    return;
  }
  if (--(*job->budget) < 0) {
    job->done(RCode::kServFail, job);
    return;
  }
  ++upstream_queries_;

  Message upstream = make_query(0, job->qname, job->qtype,
                                /*recursion_desired=*/false);
  const simnet::Endpoint server = servers[index];
  transport_->query(
      server, std::move(upstream), upstream_options_,
      [this, job, servers = std::move(servers), index](
          util::Result<Message>&& result, simnet::SimTime) mutable {
        if (!result.ok()) {
          query_servers(job, std::move(servers), index + 1);  // next server
          return;
        }
        on_response(job, std::move(servers), index, result.value());
      });
}

void RecursiveResolver::cache_response_sections(const Message& response) {
  // Group answer records into RRsets under their owners, so the CNAME
  // chase and the referral walk find each step on its own.
  std::map<std::pair<DnsName, RecordType>, std::vector<ResourceRecord>>
      rrsets;
  for (const auto& rr : response.answers) {
    rrsets[{rr.name, rr.type}].push_back(rr);
  }
  for (auto& [key, rrs] : rrsets) {
    cache_.insert(key.first, key.second, std::move(rrs), now());
  }

  // Cache referral data: NS sets become delegation entries, glue becomes
  // address cache entries.
  std::map<DnsName, std::vector<DnsName>> ns_sets;
  for (const auto& rr : response.authorities) {
    if (const auto* ns = std::get_if<NsRecord>(&rr.rdata)) {
      ns_sets[rr.name].push_back(ns->nameserver);
    }
  }
  for (auto& [zone, names] : ns_sets) {
    delegations_[zone] = std::move(names);
  }
  std::map<std::pair<DnsName, RecordType>, std::vector<ResourceRecord>> glue;
  for (const auto& rr : response.additionals) {
    if (rr.type == RecordType::kA) glue[{rr.name, rr.type}].push_back(rr);
  }
  for (auto& [key, rrs] : glue) {
    cache_.insert(key.first, key.second, std::move(rrs), now());
  }
}

void RecursiveResolver::on_response(std::shared_ptr<Job> job,
                                    std::vector<simnet::Endpoint> servers,
                                    std::size_t index,
                                    const Message& response) {
  cache_response_sections(response);

  const RCode rcode = response.header.rcode;
  if (rcode == RCode::kNoError && !response.answers.empty()) {
    // Look for a terminal answer or a CNAME step for the current qname.
    bool advanced = true;
    while (advanced) {
      advanced = false;
      for (const auto& rr : response.answers) {
        if (!(rr.name == job->qname)) continue;
        if (rr.type == job->qtype) {
          for (const auto& match : response.answers) {
            if (match.name == job->qname && match.type == job->qtype) {
              job->answers.push_back(match);
            }
          }
          job->done(RCode::kNoError, job);
          return;
        }
        if (rr.type == RecordType::kCname && job->qtype != RecordType::kCname) {
          job->answers.push_back(rr);
          if (++job->cname_hops > config_.max_cname_chain) {
            job->done(RCode::kServFail, job);
            return;
          }
          const auto* target = std::get_if<CnameRecord>(&rr.rdata);
          if (target == nullptr) {
            job->done(RCode::kServFail, job);
            return;
          }
          job->qname = target->target;
          advanced = true;
          break;
        }
      }
    }
    // CNAME chain left the answer section: restart resolution at new name.
    resolve(std::move(job));
    return;
  }

  bool has_delegation = false;
  bool has_soa = false;
  for (const auto& rr : response.authorities) {
    if (rr.type == RecordType::kNs) has_delegation = true;
    if (rr.type == RecordType::kSoa) has_soa = true;
  }
  if (rcode == RCode::kNoError && has_delegation) {
    resolve(std::move(job));  // delegation cached above; descend
    return;
  }
  if (rcode == RCode::kNxDomain ||
      (rcode == RCode::kNoError && (has_soa || response.header.aa))) {
    // NXDOMAIN or NODATA.
    cache_.insert_response(Question{job->qname, job->qtype}, response, now());
    job->done(rcode, job);
    return;
  }
  query_servers(job, std::move(servers), index + 1);
}

}  // namespace mecdns::dns
