#include "core/study.h"

#include <stdexcept>

#include "core/topology.h"
#include "ran/profiles.h"

namespace mecdns::core {

using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

namespace {
LatencyModel resolver_processing(double mean_ms) {
  return LatencyModel::normal(SimTime::millis(mean_ms),
                              SimTime::millis(mean_ms * 0.15),
                              SimTime::millis(mean_ms * 0.4));
}

std::string tld_of(const std::string& domain) {
  const auto dot = domain.rfind('.');
  return domain.substr(dot + 1);
}
}  // namespace

MeasurementStudy::MeasurementStudy(Config config)
    : config_(std::move(config)) {
  build();
}

void MeasurementStudy::build() {
  sim_ = std::make_unique<simnet::Simulator>();
  net_ = std::make_unique<simnet::Network>(*sim_, util::Rng(config_.seed));
  backbone_ = topology::add_backbone(*net_);

  hierarchy_ = std::make_unique<dns::PublicDnsHierarchy>(
      *net_, backbone_, ran::wan_link(15.0), resolver_processing(0.5));

  // Resolver addresses (used for router-side classification).
  const auto campus_ldns_addr = Ipv4Address::must_parse("172.16.0.53");
  const auto isp_ldns_addr = Ipv4Address::must_parse("100.64.0.53");
  const auto carrier_ldns_addr = Ipv4Address::must_parse("10.202.0.53");

  // --- per-site CDN routers -------------------------------------------------
  const auto& profiles = workload::figure3_profiles();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& profile = profiles[i];
    const Ipv4Address addr(Ipv4Address::must_parse("198.51.100.10").value() +
                           static_cast<std::uint32_t>(i));
    const simnet::NodeId node =
        net_->add_node("cdns-" + profile.website, addr);
    net_->add_link(node, backbone_, ran::wan_link(profile.cdns_wan_ms));

    auto router = std::make_unique<cdn::OpaqueCdnRouter>(
        net_->runtime(node), "cdns-" + profile.website,
        resolver_processing(1.2), dns::DnsName::must_parse(profile.cdn_domain),
        config_.seed * 131 + i, addr);
    router->set_answer_ttl(0);  // per-query routing, like the measured CDNs
    for (const auto& pool : profile.pools) {
      router->add_pool(pool.provider, simnet::Cidr::must_parse(pool.cidr));
    }
    router->add_resolver_class(simnet::Cidr(campus_ldns_addr, 32),
                               workload::kWiredCampus);
    router->add_resolver_class(simnet::Cidr(isp_ldns_addr, 32),
                               workload::kWifiHome);
    router->add_resolver_class(simnet::Cidr(carrier_ldns_addr, 32),
                               workload::kCellularMobile);
    for (const auto& [cls, weights] : profile.weights) {
      router->set_weights(cls, weights);
    }

    const std::string tld = tld_of(profile.cdn_domain);
    const Ipv4Address tld_addr(
        Ipv4Address::must_parse("199.7.50.1").value() +
        static_cast<std::uint32_t>(std::hash<std::string>{}(tld) % 200));
    hierarchy_->ensure_tld(tld, tld_addr, ran::wan_link(15.0));
    hierarchy_->delegate_to(
        dns::DnsName::must_parse(profile.cdn_domain),
        dns::DnsName::must_parse("ns1." + profile.cdn_domain), addr);
    routers_.push_back(std::move(router));
  }

  dns::RecursiveResolver::Config rcfg;
  rcfg.root_servers = hierarchy_->root_hints();

  // --- wired campus -----------------------------------------------------------
  {
    const simnet::NodeId gw =
        net_->add_node("campus-gw", Ipv4Address::must_parse("172.16.0.1"));
    net_->add_link(gw, backbone_, ran::wan_link(2.0));
    const simnet::NodeId ldns_node =
        net_->add_node("campus-ldns", campus_ldns_addr);
    net_->add_link(gw, ldns_node,
                   LatencyModel::constant(SimTime::micros(200)));
    campus_ldns_ = std::make_unique<dns::RecursiveResolver>(
        net_->runtime(ldns_node), "campus-ldns", resolver_processing(0.8), rcfg,
        campus_ldns_addr);

    const simnet::NodeId client =
        net_->add_node("campus-client", Ipv4Address::must_parse("172.16.1.2"));
    const ran::AccessProfile access = ran::wired_campus();
    net_->add_link(client, gw, access.uplink, access.downlink);
    campus_client_ = std::make_unique<dns::StubResolver>(
        net_->runtime(client),
        simnet::Endpoint{campus_ldns_addr, dns::kDnsPort});
  }

  // --- home Wi-Fi --------------------------------------------------------------
  {
    const simnet::NodeId home_router =
        net_->add_node("home-router", Ipv4Address::must_parse("192.168.1.1"));
    const simnet::NodeId isp_gw =
        net_->add_node("isp-gw", Ipv4Address::must_parse("100.64.0.1"));
    net_->add_link(home_router, isp_gw, ran::wan_link(7.0));  // DSL/cable leg
    net_->add_link(isp_gw, backbone_, ran::wan_link(3.0));
    const simnet::NodeId ldns_node = net_->add_node("isp-ldns", isp_ldns_addr);
    net_->add_link(isp_gw, ldns_node,
                   LatencyModel::constant(SimTime::micros(300)));
    isp_ldns_ = std::make_unique<dns::RecursiveResolver>(
        net_->runtime(ldns_node), "isp-ldns", resolver_processing(1.0), rcfg,
        isp_ldns_addr);

    const simnet::NodeId client =
        net_->add_node("home-client", Ipv4Address::must_parse("192.168.1.2"));
    const ran::AccessProfile access = ran::wifi_home();
    net_->add_link(client, home_router, access.uplink, access.downlink);
    home_client_ = std::make_unique<dns::StubResolver>(
        net_->runtime(client), simnet::Endpoint{isp_ldns_addr, dns::kDnsPort});
  }

  // --- cellular hotspot ---------------------------------------------------------
  {
    ran_ = topology::add_ran(*net_, "carrier", ran::lte());
    topology::link_to_backbone(*net_, *ran_, backbone_);

    const simnet::NodeId ldns_node =
        net_->add_node("carrier-ldns", carrier_ldns_addr);
    // Cellular L-DNS sits deep behind the core — the paper's observation 1.
    net_->add_link(ran_->pgw(), ldns_node, ran::wan_link(9.0));
    carrier_ldns_ = std::make_unique<dns::RecursiveResolver>(
        net_->runtime(ldns_node), "carrier-ldns", resolver_processing(2.0),
        rcfg, carrier_ldns_addr);

    mobile_ue_ = std::make_unique<ran::UserEquipment>(
        *net_, *ran_, "hotspot-ue", topology::ue_address(),
        simnet::Endpoint{carrier_ldns_addr, dns::kDnsPort});
  }
}

dns::StubResolver& MeasurementStudy::stub_for(
    const std::string& network_class) {
  if (network_class == workload::kWiredCampus) return *campus_client_;
  if (network_class == workload::kWifiHome) return *home_client_;
  if (network_class == workload::kCellularMobile) {
    return mobile_ue_->resolver();
  }
  throw std::invalid_argument("unknown network class: " + network_class);
}

std::string MeasurementStudy::classify_answer(
    const workload::SiteCdnProfile& profile, simnet::Ipv4Address addr) {
  const workload::ProviderPool* best = nullptr;
  int best_len = -1;
  for (const auto& pool : profile.pools) {
    const auto cidr = simnet::Cidr::must_parse(pool.cidr);
    if (cidr.contains(addr) && cidr.prefix_len() > best_len) {
      best = &pool;
      best_len = cidr.prefix_len();
    }
  }
  if (best == nullptr) return "unknown (" + addr.to_string() + ")";
  return best->provider + " (" + best->cidr + ")";
}

MeasurementStudy::CellResult MeasurementStudy::run_cell(
    std::size_t site_index, const std::string& network_class) {
  const auto& profile = workload::figure3_profiles().at(site_index);
  QueryRunner runner(*net_, stub_for(network_class), nullptr);
  runner.set_observers(trace_sink_, metrics_);
  runner.set_timeseries(timeseries_);
  QueryRunner::Options options;
  options.queries = config_.queries_per_cell;
  options.warmup = 2;  // prime the L-DNS delegation caches
  options.spacing = config_.spacing;
  const SeriesResult series = runner.run(
      dns::DnsName::must_parse(profile.cdn_domain), dns::RecordType::kA,
      options);

  CellResult cell;
  cell.website = profile.website;
  cell.network_class = network_class;
  cell.failures = series.failures();
  for (const auto& sample : series.samples) {
    if (!sample.ok) continue;
    cell.latencies_ms.add(sample.total_ms);
    cell.distribution.add(classify_answer(profile, sample.address));
  }
  cell.trimmed = cell.latencies_ms.summarize_trimmed(8.0, 92.0);
  return cell;
}

std::vector<MeasurementStudy::CellResult> MeasurementStudy::run_all() {
  std::vector<CellResult> cells;
  for (std::size_t site = 0; site < workload::figure3_profiles().size();
       ++site) {
    for (const auto& network_class : workload::network_classes()) {
      cells.push_back(run_cell(site, network_class));
    }
  }
  return cells;
}

}  // namespace mecdns::core
