#include "chaos/controller.h"

#include <utility>

#include "util/log.h"

namespace mecdns::chaos {

ChaosController::ChaosController(simnet::Network& net, std::string scenario)
    : net_(net), scenario_(std::move(scenario)) {}

ChaosController::~ChaosController() {
  for (const simnet::EventId id : armed_) net_.simulator().cancel(id);
}

void ChaosController::arm(const FaultSchedule& schedule) {
  for (const FaultEvent& event : schedule.events()) {
    // Copying the action into the closure keeps the schedule free to die
    // before the simulation runs; the destructor handles the reverse order.
    armed_.push_back(net_.simulator().schedule_at(
        event.at, [this, action = event.action] { inject_now(action); }));
  }
}

void ChaosController::inject_now(const FaultAction& action) {
  const std::string kind = kind_of(action);
  const std::string what = describe(action);
  MECDNS_LOG(kInfo, "chaos")
      << (scenario_.empty() ? "" : "[" + scenario_ + "] ") << "inject "
      << what;
  if (timeseries_ != nullptr) timeseries_->annotate(kind, what);
  if (journal_ != nullptr) {
    // Custom actions follow the schedule-builder naming convention: a label
    // ending "-off" or "-heal" undoes an earlier injection.
    const auto label_restores = [](const std::string& label) {
      const auto ends_with = [&label](const char* suffix) {
        const std::size_t n = std::char_traits<char>::length(suffix);
        return label.size() >= n &&
               label.compare(label.size() - n, n, suffix) == 0;
      };
      return ends_with("-off") || ends_with("-heal");
    };
    const bool restores =
        std::holds_alternative<NodeUp>(action) ||
        std::holds_alternative<LinkUp>(action) ||
        (std::holds_alternative<LinkLoss>(action) &&
         std::get<LinkLoss>(action).probability <= 0.0) ||
        (std::holds_alternative<Custom>(action) &&
         label_restores(std::get<Custom>(action).label));
    journal_->record(net_.now(),
                     restores ? obs::JournalKind::kFaultClear
                              : obs::JournalKind::kFaultInject,
                     /*cell=*/-1, what.c_str());
  }
  injections_.push_back(InjectionRecord{net_.now(), kind, what});
  apply(action);
}

void ChaosController::apply(const FaultAction& action) {
  if (const auto* a = std::get_if<NodeDown>(&action)) {
    net_.set_node_up(a->node, false);
  } else if (const auto* a = std::get_if<NodeUp>(&action)) {
    net_.set_node_up(a->node, true);
  } else if (const auto* a = std::get_if<LinkDown>(&action)) {
    net_.set_link_up(a->link, false);
  } else if (const auto* a = std::get_if<LinkUp>(&action)) {
    net_.set_link_up(a->link, true);
  } else if (const auto* a = std::get_if<LinkLoss>(&action)) {
    net_.set_link_loss(a->link, a->probability);
  } else if (const auto* a = std::get_if<Custom>(&action)) {
    if (a->apply) a->apply();
  }
}

}  // namespace mecdns::chaos
