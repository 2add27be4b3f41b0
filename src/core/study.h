// The §2 measurement study: Figures 2 and 3.
//
// Recreates the paper's "simple tests from end devices": one client
// location reached over three access networks — wired campus, home Wi-Fi,
// and a cellular hotspot — each with its own L-DNS, all querying the five
// Table 1 CDN domains. Each site's CDN is an OpaqueCdnRouter whose
// per-resolver-class answer mix reproduces Figure 3's observation that the
// same domain, queried from the same place, is served by different cache
// pools depending on the access network.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdn/opaque_router.h"
#include "core/experiment.h"
#include "dns/hierarchy.h"
#include "dns/recursive.h"
#include "dns/stub.h"
#include "ran/segment.h"
#include "ran/ue.h"
#include "util/stats.h"
#include "workload/domains.h"

namespace mecdns::core {

class MeasurementStudy {
 public:
  struct Config {
    std::uint64_t seed = 7;
    std::size_t queries_per_cell = 40;  ///< paper: "at least 12 tests"
    simnet::SimTime spacing = simnet::SimTime::seconds(2);
  };

  explicit MeasurementStudy(Config config);

  struct CellResult {
    std::string website;
    std::string network_class;
    util::SampleSet latencies_ms;        ///< per-query lookup latency
    util::Summary trimmed;               ///< 8th-92nd pct bar + min/max
    util::FrequencyTable distribution;   ///< answers per pool (Figure 3)
    std::size_t failures = 0;
  };

  /// Attaches observability, forwarded to every cell's QueryRunner.
  void set_observers(obs::TraceSink* trace, obs::Registry* metrics) {
    trace_sink_ = trace;
    metrics_ = metrics;
  }

  /// Attaches a sim-time-windowed series, forwarded to every cell.
  void set_timeseries(obs::TimeSeries* series) { timeseries_ = series; }

  /// Runs one (site, network) cell.
  CellResult run_cell(std::size_t site_index,
                      const std::string& network_class);

  /// Runs the full 5x3 grid in the paper's order.
  std::vector<CellResult> run_all();

  simnet::Network& network() { return *net_; }
  const workload::SiteCdnProfile& site(std::size_t i) const {
    return workload::figure3_profiles().at(i);
  }
  /// The opaque router serving site `i` (router-side distribution counters
  /// for cross-checking against the client-side classification).
  const cdn::OpaqueCdnRouter& router(std::size_t i) const {
    return *routers_.at(i);
  }

 private:
  void build();
  dns::StubResolver& stub_for(const std::string& network_class);

  /// Maps an answered address to its pool label via the site's CIDRs
  /// (longest prefix first), as the paper did from dig output.
  static std::string classify_answer(const workload::SiteCdnProfile& profile,
                                     simnet::Ipv4Address addr);

  Config config_;
  std::unique_ptr<simnet::Simulator> sim_;
  std::unique_ptr<simnet::Network> net_;
  std::unique_ptr<dns::PublicDnsHierarchy> hierarchy_;
  simnet::NodeId backbone_ = simnet::kInvalidNode;

  // per-site opaque routers
  std::vector<std::unique_ptr<cdn::OpaqueCdnRouter>> routers_;

  // wired-campus environment
  std::unique_ptr<dns::RecursiveResolver> campus_ldns_;
  std::unique_ptr<dns::StubResolver> campus_client_;
  // wifi-home environment
  std::unique_ptr<dns::RecursiveResolver> isp_ldns_;
  std::unique_ptr<dns::StubResolver> home_client_;
  // cellular-mobile environment
  std::unique_ptr<ran::RanSegment> ran_;
  std::unique_ptr<dns::RecursiveResolver> carrier_ldns_;
  std::unique_ptr<ran::UserEquipment> mobile_ue_;
  obs::TraceSink* trace_sink_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  obs::TimeSeries* timeseries_ = nullptr;
};

}  // namespace mecdns::core
