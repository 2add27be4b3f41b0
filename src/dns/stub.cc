#include "dns/stub.h"

#include "obs/trace.h"

namespace mecdns::dns {

namespace {
StubResult result_from_response(Message&& response, simnet::SimTime rtt,
                                int which) {
  StubResult result;
  result.ok = response.header.rcode == RCode::kNoError;
  result.rcode = response.header.rcode;
  result.address = response.first_a();
  result.response = std::move(response);
  result.latency = rtt;
  result.answered_by = which;
  if (!result.ok) result.error = to_string(result.rcode);
  return result;
}
}  // namespace

StubResolver::StubResolver(netio::Runtime& runtime, simnet::Endpoint server,
                           DnsTransport::Options options)
    : server_(server),
      options_(std::make_shared<const DnsTransport::Options>(
          std::move(options))) {
  transport_ = std::make_unique<DnsTransport>(runtime);
}

void StubResolver::resolve(const DnsName& name, RecordType type,
                           Callback callback) {
  if (chase_cnames_ && type == RecordType::kA) {
    callback = chase_wrapper(std::move(callback), max_cname_hops_,
                             simnet::SimTime::zero());
  }
  resolve_traced(name, make_query(0, name, type), std::move(callback));
}

void StubResolver::resolve_traced(const DnsName& name, Message&& query,
                                  Callback&& callback) {
  // Untraced lookups skip building the span's name.
  obs::SpanRef span;
  if (trace_ != nullptr || simnet::current_trace_token().active()) {
    span = obs::begin_root_span(trace_, "stub", "lookup " + name.to_string());
  }
  if (span.active()) {
    callback.wrap([span](Callback::Inner inner, const StubResult& r) {
      span.tag("rcode", to_string(r.rcode));
      span.tag("answered_by", std::to_string(r.answered_by));
      if (!r.error.empty()) span.tag("error", r.error);
      span.end();
      inner(r);
    });
  }
  // Everything dispatched here — transport sends, timeouts, CNAME chases —
  // inherits the lookup span via the ambient token.
  obs::AmbientSpanGuard ambient(span);
  dispatch(std::move(query), std::move(callback));
}

StubResolver::Callback StubResolver::chase_wrapper(
    Callback&& callback, int hops_left, simnet::SimTime accumulated) {
  // Each hop's wrapper owns the caller's callback and hands it to the next
  // hop's wrapper, so it is moved, never copied.
  return [this, callback = std::move(callback), hops_left,
          accumulated](const StubResult& result) mutable {
    // Chase only successful answers that end at a CNAME without an address.
    if (!result.ok || result.address.has_value() || hops_left <= 0 ||
        result.response.answers.empty()) {
      StubResult total = result;
      total.latency += accumulated;
      callback(total);
      return;
    }
    const DnsName* target = nullptr;
    for (const auto& rr : result.response.answers) {
      if (const auto* cname = std::get_if<CnameRecord>(&rr.rdata)) {
        target = &cname->target;  // last CNAME in the chain wins
      }
    }
    if (target == nullptr) {
      StubResult total = result;
      total.latency += accumulated;
      callback(total);
      return;
    }
    dispatch(make_query(0, *target, RecordType::kA),
             chase_wrapper(std::move(callback), hops_left - 1,
                           accumulated + result.latency));
  };
}

void StubResolver::resolve_with_ecs(const DnsName& name, RecordType type,
                                    const ClientSubnet& ecs,
                                    Callback callback) {
  Message query = make_query(0, name, type);
  query.edns = Edns{};
  query.edns->client_subnet = ecs;
  resolve_traced(name, std::move(query), std::move(callback));
}

void StubResolver::dispatch(Message&& query, Callback&& callback) {
  if (!secondary_.has_value()) {
    auto deliver = [callback = std::move(callback)](
                       util::Result<Message>&& result,
                       simnet::SimTime rtt) mutable {
      if (!result.ok()) {
        StubResult failure;
        failure.error = result.error().message;
        failure.latency = rtt;
        callback(failure);
        return;
      }
      callback(result_from_response(std::move(result.value()), rtt, 0));
    };
    static_assert(DnsTransport::Callback::stores_inline<decltype(deliver)>);
    transport_->query(server_, std::move(query), options_, std::move(deliver));
    return;
  }

  // Multicast mode: race the two servers; first non-REFUSED answer wins.
  // A REFUSED answer (the MEC DNS declining a non-MEC name) is held back in
  // case the other server answers; two losses report the better of the two.
  struct Race {
    bool done = false;
    int failures = 0;
    std::optional<StubResult> refused;
    Callback callback;
  };
  auto race = std::make_shared<Race>();
  race->callback = std::move(callback);

  const auto arm = [this, race](const simnet::Endpoint& server, int which,
                                Message&& q) {
    transport_->query(
        server, std::move(q), options_,
        [race, which](util::Result<Message>&& result, simnet::SimTime rtt) {
          if (race->done) return;
          if (result.ok() &&
              result.value().header.rcode != RCode::kRefused) {
            race->done = true;
            race->callback(
                result_from_response(std::move(result.value()), rtt, which));
            return;
          }
          if (result.ok()) {
            race->refused =
                result_from_response(std::move(result.value()), rtt, which);
          }
          if (++race->failures == 2) {
            race->done = true;
            if (race->refused.has_value()) {
              race->callback(*race->refused);
            } else {
              StubResult failure;
              failure.error = "all servers failed";
              failure.latency = rtt;
              race->callback(failure);
            }
          }
        });
  };
  arm(server_, 0, Message(query));
  arm(*secondary_, 1, std::move(query));
}

}  // namespace mecdns::dns
