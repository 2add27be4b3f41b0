#include "cdn/traffic_router.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace mecdns::cdn {

namespace {

// Extra processing per query when an ECS option must be parsed, validated
// and scoped (the small delta the paper measured).
constexpr simnet::SimTime kEcsProcessing = simnet::SimTime::micros(150);

// Accounting window of the bounded-load cache selection.
constexpr simnet::SimTime kCapacityWindow = simnet::SimTime::seconds(1);

}  // namespace

TrafficRouter::TrafficRouter(netio::Runtime& runtime, std::string name,
                             simnet::LatencyModel processing_delay,
                             Config config, std::uint16_t port,
                             simnet::Ipv4Address addr)
    : dns::DnsServer(runtime, std::move(name), processing_delay, port, addr),
      config_(std::move(config)) {}

TrafficRouter::~TrafficRouter() {
  ecs_answers_.for_each(
      [this](EcsAnswer& answer) { runtime().cancel(answer.timer); });
}

void TrafficRouter::add_cache_group(const std::string& group) {
  groups_.emplace(group, Group{});
}

void TrafficRouter::add_cache(const std::string& group, CacheInfo cache) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    it = groups_.emplace(group, Group{}).first;
  }
  it->second.caches.push_back(std::move(cache));
  rebuild_ring(it->second);
}

void TrafficRouter::set_cache_healthy(const std::string& group,
                                      const std::string& cache, bool healthy) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  for (auto& info : it->second.caches) {
    if (info.name == cache) info.healthy = healthy;
  }
  rebuild_ring(it->second);
}

void TrafficRouter::rebuild_ring(Group& group) {
  ConsistentHashRing next(64);
  for (const auto& cache : group.caches) {
    if (cache.healthy) {
      next.add(cache.name);
      if (config_.cache_capacity_per_window > 0) {
        next.set_capacity(cache.name, config_.cache_capacity_per_window);
      }
    }
  }
  // Churn accounting: what fraction of the key space this membership change
  // moved. Bounded-load consistent hashing promises O(K/n); the counters
  // let benches and tests hold it to that.
  if (!group.ring.empty() && !next.empty()) {
    const double fraction =
        ConsistentHashRing::remap_fraction(group.ring, next);
    ++router_stats_.topology_changes;
    router_stats_.last_remap_fraction = fraction;
    router_stats_.max_remap_fraction =
        std::max(router_stats_.max_remap_fraction, fraction);
    router_stats_.remap_fraction_sum += fraction;
  }
  // Loads do not carry across a rebuild: the window restarts with the new
  // membership (deterministic, and conservative for the fuller ring).
  group.load_window = UINT64_MAX;
  group.ring = std::move(next);
}

void TrafficRouter::add_delivery_service(DeliveryService service) {
  services_.push_back(std::move(service));
}

bool TrafficRouter::has_delivery_service(const std::string& id) const {
  return std::any_of(services_.begin(), services_.end(),
                     [&](const DeliveryService& s) { return s.id == id; });
}

const DeliveryService* TrafficRouter::match_service(
    const dns::DnsName& qname) const {
  const DeliveryService* best = nullptr;
  for (const auto& service : services_) {
    if (!qname.is_subdomain_of(service.domain)) continue;
    if (best == nullptr ||
        service.domain.label_count() > best->domain.label_count()) {
      best = &service;
    }
  }
  return best;
}

std::optional<std::string> TrafficRouter::choose_group(
    const DeliveryService& service, simnet::Ipv4Address client_addr) {
  const auto allowed = [&](const std::string& group) {
    return std::find(service.cache_groups.begin(), service.cache_groups.end(),
                     group) != service.cache_groups.end();
  };

  // 1. Coverage zone file: authoritative client-subnet knowledge.
  if (auto group = coverage_.lookup(client_addr);
      group.has_value() && allowed(*group)) {
    ++router_stats_.coverage_hits;
    return group;
  }

  // 2. Geo fallback: nearest allowed group by (imperfect) GeoIP distance.
  if (auto client_location = geo_.locate(client_addr);
      client_location.has_value() && !config_.group_locations.empty()) {
    ++router_stats_.geo_fallbacks;
    const std::string* best = nullptr;
    double best_distance = std::numeric_limits<double>::max();
    for (const auto& [group, location] : config_.group_locations) {
      if (!allowed(group)) continue;
      const double d = distance_km(*client_location, location);
      if (d < best_distance) {
        best_distance = d;
        best = &group;
      }
    }
    if (best != nullptr) return *best;
  }

  // 3. Coverage default group, then first allowed group with any cache.
  if (const auto& fallback = coverage_.default_group();
      fallback.has_value() && allowed(*fallback)) {
    return fallback;
  }
  for (const auto& group : service.cache_groups) {
    if (groups_.count(group) != 0) return group;
  }
  return std::nullopt;
}

std::optional<CacheInfo> TrafficRouter::choose_cache(
    const std::string& group, const dns::DnsName& qname) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return std::nullopt;
  Group& g = it->second;

  std::optional<std::string> member;
  if (config_.cache_capacity_per_window > 0) {
    const std::uint64_t window = static_cast<std::uint64_t>(
        now().count_nanos() / kCapacityWindow.count_nanos());
    if (window != g.load_window) {
      g.load_window = window;
      g.ring.reset_loads();
    }
    bool overflowed = false;
    member = g.ring.pick_bounded_name(qname, &overflowed);
    if (member.has_value()) {
      g.ring.add_load(*member);
      if (overflowed) ++router_stats_.bounded_overflows;
    } else if (!g.ring.empty()) {
      // Site over capacity this window: count it and let handle() degrade
      // via the parent-tier referral.
      ++router_stats_.capacity_exhausted;
    }
  } else {
    member = g.ring.pick_name(qname);
  }

  if (!member.has_value()) return std::nullopt;
  for (const auto& cache : g.caches) {
    if (cache.name == *member) return cache;
  }
  return std::nullopt;
}

void TrafficRouter::handle(const dns::Query& query,
                           const dns::QueryContext& ctx, Responder&& respond) {
  const dns::Question& q = query.question;

  if (!q.name.is_subdomain_of(config_.cdn_domain)) {
    respond(dns::make_response(query, dns::RCode::kRefused));
    return;
  }

  // Determine the localization address: ECS subnet when offered and
  // enabled, else the resolver's own source address — the paper's "based on
  // L-DNS's location, C-DNS returns the IP address of a cache server".
  simnet::Ipv4Address client_addr = ctx.client.addr;
  bool localized_by_ecs = false;
  if (config_.use_ecs && query.edns.has_value() &&
      query.edns->client_subnet.has_value()) {
    client_addr = query.edns->client_subnet->subnet().network();
    localized_by_ecs = true;
    ++router_stats_.ecs_localized;
    obs::ambient_span().tag("ecs", "true");
  }

  const auto finish = [&](dns::Message&& response) {
    if (localized_by_ecs) {
      // Extra work: option parsing, subnet validation, scoped answer
      // bookkeeping. The paper measured ECS shifting latency by roughly
      // 1.01x-1.08x; this models that small cost explicitly.
      const std::uint32_t slot = ecs_answers_.acquire();
      EcsAnswer& answer = ecs_answers_[slot];
      answer.response = std::move(response);
      answer.respond = std::move(respond);
      answer.timer = runtime().schedule_after(kEcsProcessing, [this, slot] {
        EcsAnswer& due = ecs_answers_[slot];
        due.respond(std::move(due.response));
        due.respond.reset();
        ecs_answers_.release(slot);
      });
    } else {
      respond(std::move(response));
    }
  };

  const DeliveryService* service = match_service(q.name);
  dns::Message response = dns::make_response(query);
  response.header.aa = true;
  if (localized_by_ecs) {
    // The answer is valid for the client's whole disclosed subnet.
    response.edns->client_subnet->scope_prefix =
        query.edns->client_subnet->source_prefix;
  }

  if (q.type != dns::RecordType::kA && q.type != dns::RecordType::kAny) {
    // Routers only synthesize A records; other types get NODATA.
    finish(std::move(response));
    return;
  }

  // A cascading CNAME into the parent tier's CDN domain, when configured;
  // `edge` journals the transition into referral mode.
  const auto refer_to_parent = [&](bool edge) {
    if (!config_.parent_domain.has_value()) return false;
    auto target = q.name.prefix(q.name.label_count() -
                                config_.cdn_domain.label_count())
                      .under(*config_.parent_domain);
    if (!target.ok()) return false;
    ++router_stats_.referred_to_parent;
    if (edge && !referring_) {
      referring_ = true;
      if (journal_ != nullptr) {
        journal_->record(ctx.received, obs::JournalKind::kParentReferral,
                         journal_cell_, "no healthy local cache");
      }
    }
    obs::ambient_span().tag("route", "parent-referral");
    response.answers.push_back(
        dns::make_cname(q.name, target.value(), config_.answer_ttl));
    finish(std::move(response));
    return true;
  };

  if (service == nullptr) {
    // Unknown delivery service at this tier: refer into the parent tier,
    // else NXDOMAIN.
    if (q.name.label_count() > config_.cdn_domain.label_count() &&
        refer_to_parent(/*edge=*/false)) {
      return;
    }
    response.header.rcode = dns::RCode::kNxDomain;
    finish(std::move(response));
    return;
  }

  const auto group = choose_group(*service, client_addr);
  const auto cache =
      group.has_value() ? choose_cache(*group, q.name) : std::nullopt;
  if (!cache.has_value()) {
    // No healthy cache anywhere for this service at this tier: refer up if
    // possible (journalling the edge: local caches became unusable and
    // traffic started cascading to the parent tier), else SERVFAIL (the
    // router knows the name but cannot serve).
    if (refer_to_parent(/*edge=*/true)) return;
    ++router_stats_.no_cache_available;
    obs::ambient_span().tag("route", "no-cache-available");
    response.header.rcode = dns::RCode::kServFail;
    finish(std::move(response));
    return;
  }

  ++router_stats_.routed;
  referring_ = false;
  ++selections_[cache->name];
  obs::ambient_span().tag("route", "routed");
  obs::ambient_span().tag("cache", cache->name);
  obs::ambient_span().tag("group", *group);
  response.answers.push_back(
      dns::make_a(q.name, cache->address, config_.answer_ttl));
  finish(std::move(response));
}

}  // namespace mecdns::cdn
