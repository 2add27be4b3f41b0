#include "core/fault_scenarios.h"

#include <stdexcept>

namespace mecdns::core {

const std::vector<std::string>& fault_scenario_names() {
  static const std::vector<std::string> kNames = {
      "mec-ldns-crash", "edge-cache-partition", "wan-loss-burst",
      "cdns-brownout",  "cache-wipe",
  };
  return kNames;
}

FaultScenario make_mec_ldns_crash(Fig5Testbed& testbed, simnet::SimTime start,
                                  simnet::SimTime end) {
  FaultScenario scenario;
  scenario.name = "mec-ldns-crash";
  scenario.description =
      "the node hosting the MEC L-DNS crashes, restarts at fault_end";
  scenario.fault_start = start;
  scenario.fault_end = end;
  scenario.schedule.node_outage(start, end, testbed.mec_ldns_node());
  return scenario;
}

FaultScenario make_edge_cache_partition(Fig5Testbed& testbed,
                                        simnet::SimTime start,
                                        simnet::SimTime end) {
  FaultScenario scenario;
  scenario.name = "edge-cache-partition";
  scenario.description =
      "every edge-cache worker drops off the cluster fabric, rejoins at "
      "fault_end";
  scenario.fault_start = start;
  scenario.fault_end = end;
  simnet::Network& net = testbed.network();
  const simnet::NodeId ldns = testbed.mec_ldns_node();
  for (std::size_t i = 0; i < MecCdnSite::kEdgeCaches; ++i) {
    const simnet::NodeId node =
        net.find_node(testbed.site().cache_address(i));
    // The infra worker hosts the L-DNS/C-DNS; a "cache partition" must not
    // quietly become an L-DNS crash.
    if (node == simnet::kInvalidNode || node == ldns) continue;
    scenario.schedule.node_outage(start, end, node);
  }
  return scenario;
}

FaultScenario make_wan_loss_burst(Fig5Testbed& testbed, simnet::SimTime start,
                                  simnet::SimTime end, double probability) {
  FaultScenario scenario;
  scenario.name = "wan-loss-burst";
  scenario.description =
      "the P-GW's WAN exit link drops packets at random during the window";
  scenario.fault_start = start;
  scenario.fault_end = end;
  scenario.schedule.loss_burst(start, end, testbed.pgw_backbone_link(),
                               probability);
  return scenario;
}

FaultScenario make_cdns_brownout(Fig5Testbed& testbed, simnet::SimTime start,
                                 simnet::SimTime end, simnet::SimTime extra) {
  FaultScenario scenario;
  scenario.name = "cdns-brownout";
  scenario.description =
      "the serving C-DNS adds a fixed per-query delay during the window "
      "(alive but degraded)";
  scenario.fault_start = start;
  scenario.fault_end = end;
  cdn::TrafficRouter& router = testbed.active_router();
  scenario.schedule.custom(start, "cdns-brownout-on", [&router, extra] {
    router.set_extra_processing(extra);
  });
  scenario.schedule.custom(end, "cdns-brownout-off", [&router] {
    router.set_extra_processing(simnet::SimTime::zero());
  });
  return scenario;
}

FaultScenario make_cache_wipe(Fig5Testbed& testbed, simnet::SimTime at) {
  FaultScenario scenario;
  scenario.name = "cache-wipe";
  scenario.description =
      "every edge cache loses its content store at one instant (cold "
      "restart); subsequent fetches re-fill from the origin";
  scenario.fault_start = at;
  scenario.fault_end = at;
  scenario.schedule.custom(at, "edge-cache-wipe", [&testbed] {
    for (cdn::CacheServer* cache : testbed.site().caches()) {
      cache->wipe();
    }
  });
  return scenario;
}

FaultScenario make_fault_scenario(const std::string& name,
                                  Fig5Testbed& testbed, simnet::SimTime start,
                                  simnet::SimTime end) {
  if (name == "mec-ldns-crash") {
    return make_mec_ldns_crash(testbed, start, end);
  }
  if (name == "edge-cache-partition") {
    return make_edge_cache_partition(testbed, start, end);
  }
  if (name == "wan-loss-burst") {
    return make_wan_loss_burst(testbed, start, end);
  }
  if (name == "cdns-brownout") {
    return make_cdns_brownout(testbed, start, end);
  }
  if (name == "cache-wipe") {
    return make_cache_wipe(testbed, start);
  }
  throw std::invalid_argument("unknown fault scenario: " + name);
}

}  // namespace mecdns::core
