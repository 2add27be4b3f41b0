#include "step_tracer.h"

#include <algorithm>

namespace perfbench {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

const char* layer_metric(Layer layer) {
  switch (layer) {
    case Layer::kStub: return "dns.stub.ns_per_query";
    case Layer::kRan: return "ran.ns_per_query";
    case Layer::kForward: return "simnet.forward_ns_per_query";
    case Layer::kLdns: return "dns.ldns.ns_per_query";
    case Layer::kRouter: return "cdn.router.ns_per_query";
    case Layer::kRecursive: return "dns.recursive.ns_per_query";
    case Layer::kAuth: return "dns.auth.ns_per_query";
    case Layer::kOther: return "other.ns_per_query";
  }
  return "?";
}

Layer layer_of(const std::string& name) {
  if (name == "ue" || starts_with(name, "ue-")) return Layer::kStub;
  if (ends_with(name, "-enb") || ends_with(name, "-sgw") ||
      ends_with(name, "-pgw")) {
    return Layer::kRan;
  }
  if (name == "internet-backbone" || ends_with(name, "-gw")) {
    return Layer::kForward;
  }
  if (ends_with(name, "-infra")) return Layer::kLdns;
  if (ends_with(name, "-router") || ends_with(name, "-cdns")) {
    return Layer::kRouter;
  }
  if (ends_with(name, "-ldns") || name == "google-dns" ||
      name == "cloudflare-dns") {
    return Layer::kRecursive;
  }
  if (starts_with(name, "dns-")) return Layer::kAuth;
  return Layer::kOther;
}

StepTracer::StepTracer(simnet::Network& net) : net_(net) {
  const std::size_t n = net.node_count();
  node_layer_.resize(n);
  node_steps_.assign(n, 0);
  for (simnet::NodeId node = 0; node < n; ++node) {
    node_layer_[node] = layer_of(net.node_name(node));
    net.add_tap(node, [this, node](const simnet::Packet& packet,
                                   simnet::SimTime) {
      ++arrivals_;
      if (step_node_ == simnet::kInvalidNode) step_node_ = node;
      if (packet.hops.size() != 1 || pending_.empty()) return;
      // First hop: the packet is at its origin, so a timer step that sent
      // it can now be charged here.
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->first == packet.id) {
          charge(node, it->second);
          pending_.erase(it);
          return;
        }
      }
    });
  }
}

void StepTracer::charge(simnet::NodeId node, std::int64_t ns) {
  ++node_steps_[node];
  layer_ns_[static_cast<int>(node_layer_[node])] += ns;
}

bool StepTracer::step() {
  simnet::Simulator& sim = net_.simulator();
  step_node_ = simnet::kInvalidNode;
  in_pump_ = false;
  issue_ns_in_step_ = 0;
  const std::uint64_t sent_before = net_.stats().sent;
  const std::int64_t start = now_ns();
  if (!sim.step()) return false;
  const std::int64_t ns = now_ns() - start;
  ++steps_;
  total_ns_ += ns;
  if (in_pump_) {
    issue_ns_ += issue_ns_in_step_;
    pump_ns_ += ns - issue_ns_in_step_;
  } else if (step_node_ != simnet::kInvalidNode) {
    charge(step_node_, ns);
  } else if (net_.stats().sent > sent_before) {
    // send_from numbers packets 1, 2, ... in step with stats().sent.
    pending_.emplace_back(sent_before + 1, ns);
  } else {
    ++idle_timers_;
    idle_ns_ += ns;
  }
  return true;
}

void StepTracer::run() {
  while (step()) {
  }
}

std::int64_t StepTracer::unresolved_ns() const {
  std::int64_t ns = 0;
  for (const auto& entry : pending_) ns += entry.second;
  return ns;
}

}  // namespace perfbench
