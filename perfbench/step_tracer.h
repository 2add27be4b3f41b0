// Per-layer wall-time attribution for a simulated run, from outside the
// program: the tracer drives the event loop one Simulator::step() at a
// time, times each step, and charges it to the node it ran on.
//
//   * An arrival step goes to the node whose tap fired first in it.
//   * A timer step that sends goes to the origin node of the first packet
//     it sent (packet ids follow Network::stats().sent, and the origin's
//     tap sees the packet on its first hop a few steps later).
//   * A step inside the load generator's pump is split: the spans the
//     caller timed around the issue call are the stub's issue cost, the
//     rest is the generator's own.
//   * Any other timer step that sends nothing is an idle timer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "simnet/network.h"

namespace perfbench {

namespace simnet = mecdns::simnet;

/// The program layers a simulated node's steps are charged to.
enum class Layer {
  kStub,       ///< the UE: StubResolver + transport
  kRan,        ///< eNB / S-GW / P-GW (NAT hook, DnsTap)
  kForward,    ///< pure forwarding: backbone, cluster gateways
  kLdns,       ///< the MEC L-DNS (cluster infra worker)
  kRouter,     ///< C-DNS traffic routers
  kRecursive,  ///< recursive resolvers (provider / public L-DNS)
  kAuth,       ///< root, TLD and other authoritative servers
  kOther,      ///< caches, origin: not on the DNS path
};
inline constexpr int kLayerCount = 8;

/// The metric name a layer's ns/query is reported under.
const char* layer_metric(Layer layer);

/// Maps a node name from the testbeds to its layer.
Layer layer_of(const std::string& node_name);

class StepTracer {
 public:
  /// Installs a read-only tap on every node of `net`.
  explicit StepTracer(simnet::Network& net);

  StepTracer(const StepTracer&) = delete;
  StepTracer& operator=(const StepTracer&) = delete;

  /// Runs one timed step. Returns false when the queue was empty.
  bool step();

  /// Runs timed steps until the queue drains.
  void run();

  /// The load generator's issue callback calls this around each issue.
  void add_issue_span(std::int64_t ns) {
    in_pump_ = true;
    issue_ns_in_step_ += ns;
  }

  std::int64_t layer_ns(Layer layer) const {
    return layer_ns_[static_cast<int>(layer)];
  }
  std::uint64_t node_steps(simnet::NodeId node) const {
    return node_steps_[node];
  }
  std::int64_t total_ns() const { return total_ns_; }
  std::int64_t idle_ns() const { return idle_ns_; }
  std::int64_t pump_ns() const { return pump_ns_; }
  std::int64_t issue_ns() const { return issue_ns_; }
  std::int64_t unresolved_ns() const;  ///< sends whose origin was not seen
  std::uint64_t steps() const { return steps_; }
  std::uint64_t idle_timers() const { return idle_timers_; }
  std::uint64_t arrivals() const { return arrivals_; }

 private:
  void charge(simnet::NodeId node, std::int64_t ns);

  simnet::Network& net_;
  std::vector<Layer> node_layer_;
  std::vector<std::uint64_t> node_steps_;
  std::int64_t layer_ns_[kLayerCount] = {};
  /// Timer steps waiting for their first packet's origin arrival:
  /// (packet id, step ns).
  std::vector<std::pair<std::uint64_t, std::int64_t>> pending_;
  simnet::NodeId step_node_ = simnet::kInvalidNode;
  bool in_pump_ = false;
  std::int64_t issue_ns_in_step_ = 0;
  std::int64_t total_ns_ = 0;
  std::int64_t idle_ns_ = 0;
  std::int64_t pump_ns_ = 0;
  std::int64_t issue_ns_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t idle_timers_ = 0;
  std::uint64_t arrivals_ = 0;
};

}  // namespace perfbench
