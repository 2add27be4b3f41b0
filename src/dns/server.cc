#include "dns/server.h"

#include <algorithm>

#include "simnet/context.h"
#include "util/log.h"
#include "util/perfcount.h"

namespace mecdns::dns {

DnsServer::DnsServer(netio::Runtime& runtime, std::string name,
                     simnet::LatencyModel processing_delay, std::uint16_t port,
                     simnet::Ipv4Address addr)
    : rt_(runtime), name_(std::move(name)),
      processing_delay_(processing_delay),
      rng_(0xd5a79147930aa725ULL ^ (runtime.rng_stream() << 17)) {
  socket_ = rt_.open_socket(
      port, [this](const simnet::Packet& packet) { on_packet(packet); }, addr);
}

DnsServer::~DnsServer() {
  // Queries still in their processing delay never reach handle(). A free
  // or queued slot keeps the id of an event that already ran, and
  // cancelling that is a no-op.
  in_flight_.for_each([this](InFlight& work) { rt_.cancel(work.timer); });
  rt_.close_socket(socket_);
}

void DnsServer::on_packet(const simnet::Packet& packet) {
  // The whole message is decoded, so the codec accepts and rejects what it
  // always did, but only its Query moves into the slot that keeps it until
  // its processing event: no decoded record outlives this call.
  Message message;
  if (!decode(packet.payload, message).ok() || message.header.qr ||
      message.questions.empty()) {
    ++stats_.malformed;
    return;
  }
  const std::uint32_t slot = in_flight_.acquire();
  InFlight& work = in_flight_[slot];
  work.query = to_query(message);
  const Query& query = work.query;
  ++stats_.queries;
  ++util::perf::counters().dns_queries_served;

  work.ctx.client = packet.src;
  work.ctx.received = rt_.now();

  // When the delivering packet carries a trace (the client's transport
  // span is ambient), open a serve span under it: one slice per query,
  // named after this server, covering queueing + processing + upstreams.
  // Untraced queries skip building the span's name.
  obs::SpanRef span;
  if (simnet::current_trace_token().active()) {
    span = obs::begin_span(
        name_, "serve " + query.question.name.to_string());
  }
  work.span = span;

  // RFC 1035 §4.2.1 / RFC 6891: the client's receive buffer is 512 octets
  // unless it advertised more via EDNS. 0 marks a client that sent no OPT
  // record.
  const std::uint16_t edns_limit =
      query.edns.has_value()
          ? std::max<std::uint16_t>(512, query.edns->udp_payload_size)
          : 0;

  // The responder captures where to send the reply. handle() may hold it
  // across its own upstream queries or a timer, but only in state this
  // server owns (a plugin's transaction, a cancellable timer's slot), so
  // it dies with the server, uncalled. Address, port and the 16-bit
  // payload limit share one 8-byte word.
  auto reply = [this, addr = packet.src.addr, port = packet.src.port,
                edns_limit, span](Message&& response) {
    ServerStats& stats = stats_;
    ++stats.responses;
    switch (response.header.rcode) {
      case RCode::kRefused: ++stats.refused; break;
      case RCode::kNxDomain: ++stats.nxdomain; break;
      case RCode::kServFail: ++stats.servfail; break;
      default: break;
    }
    span.tag("rcode", to_string(response.header.rcode));
    // RFC 6891 §7: a client that sent no OPT record gets none back, not even
    // one a relayed upstream answer carries. Plugins that observe the
    // answer (the cache reads its ECS scope) have already seen it.
    if (edns_limit == 0) response.edns.reset();
    // The reply is sent straight from the encoder's buffer (the socket
    // copies into a pooled buffer / the real wire) — no per-response
    // vector.
    std::span<const std::uint8_t> wire = encode_view(response);
    if (wire.empty() ||
        wire.size() > std::max<std::size_t>(512, edns_limit)) {
      // Truncate per RFC 2181 §9: set TC and drop the record sections; the
      // client re-queries with a larger EDNS buffer (or TCP, not modelled).
      // A response too large to encode at all (empty wire) is the same
      // case, since no payload limit exceeds 65535 octets.
      ++stats.truncated;
      response.header.tc = true;
      response.answers.clear();
      response.authorities.clear();
      response.additionals.clear();
      wire = encode_view(response);
    }
    socket_->send(simnet::Endpoint{addr, port}, wire);
    span.end();
  };
  static_assert(sizeof(reply) <= kReplySize);
  static_assert(Responder::stores_inline<decltype(reply)>);
  work.respond.emplace(std::move(reply));

  if (workers_ == 0) {
    // Idealized server: every query gets its own processing slot.
    start(slot, /*holds_worker=*/false);
    return;
  }
  // A queued query draws its delay when a worker takes it. This draw is
  // unused; it keeps the RNG sequence of worker-limited servers.
  (void)processing_delay_.sample(rng_);
  enqueue(slot);
}

void DnsServer::set_service_capacity(std::size_t workers,
                                     std::size_t max_queue) {
  workers_ = workers;
  max_queue_ = max_queue;
}

void DnsServer::enqueue(std::uint32_t slot) {
  if (work_queue_.size() >= max_queue_) {
    ++dropped_overflow_;
    MECDNS_LOG(kWarn, name_) << "queue full (" << max_queue_
                             << "), shedding query";
    const obs::SpanRef span = in_flight_[slot].span;
    span.tag("outcome", "shed");
    span.end();
    release(slot);
    return;
  }
  work_queue_.push_back(slot);
  if (work_queue_.size() > max_queue_depth_) {
    max_queue_depth_ = work_queue_.size();
  }
  pump();
}

void DnsServer::pump() {
  while (busy_ < workers_ && !work_queue_.empty()) {
    const std::uint32_t slot = work_queue_.front();
    work_queue_.pop_front();
    ++busy_;
    start(slot, /*holds_worker=*/true);
  }
}

void DnsServer::start(std::uint32_t slot, bool holds_worker) {
  const simnet::SimTime delay =
      processing_delay_.sample(rng_) + extra_processing_;
  // start() may run under whatever event freed a worker; the processing
  // event runs under the query's own serve span.
  InFlight& work = in_flight_[slot];
  obs::AmbientSpanGuard ambient(work.span);
  work.timer = rt_.schedule_after(
      delay, [this, slot, holds_worker] { process(slot, holds_worker); });
}

void DnsServer::process(std::uint32_t slot, bool holds_worker) {
  InFlight& work = in_flight_[slot];
  handle(work.query, work.ctx, std::move(work.respond));
  release(slot);
  if (!holds_worker) return;
  // The worker is released when processing ends; any wait for upstream
  // answers inside handle() is I/O, not CPU.
  --busy_;
  pump();
}

void DnsServer::release(std::uint32_t slot) {
  InFlight& work = in_flight_[slot];
  // A responder handle() left behind drops its query here.
  work.respond.reset();
  work.span = obs::SpanRef();
  in_flight_.release(slot);
}

AuthoritativeServer::AuthoritativeServer(netio::Runtime& runtime,
                                         std::string name,
                                         simnet::LatencyModel processing_delay,
                                         std::uint16_t port,
                                         simnet::Ipv4Address addr)
    : DnsServer(runtime, std::move(name), processing_delay, port, addr) {}

Zone& AuthoritativeServer::add_zone(DnsName origin) {
  zones_.emplace_back(std::move(origin));
  return zones_.back();
}

namespace {

const Zone* longest_match(std::span<const Zone> zones, const DnsName& name) {
  const Zone* best = nullptr;
  for (const Zone& zone : zones) {
    if (!name.is_subdomain_of(zone.origin())) continue;
    if (best == nullptr ||
        zone.origin().label_count() > best->origin().label_count()) {
      best = &zone;
    }
  }
  return best;
}

}  // namespace

Zone* AuthoritativeServer::find_zone(const DnsName& name) {
  return const_cast<Zone*>(longest_match(zones_, name));
}

void AuthoritativeServer::handle(const Query& query,
                                 const QueryContext& /*ctx*/,
                                 Responder&& respond) {
  respond(zone_answer(zones_, query));
}

Message zone_answer(std::span<const Zone> zones, const Query& query) {
  const Question& q = query.question;
  const Zone* zone = longest_match(zones, q.name);
  if (zone == nullptr) return make_response(query, RCode::kRefused);

  Message response = make_response(query);
  response.header.aa = true;
  // Chase CNAME chains, bounded to defeat loops.
  DnsName qname = q.name;
  for (int depth = 0; depth < 8; ++depth) {
    const LookupResult result = zone->lookup(qname, q.type);
    switch (result.status) {
      case LookupStatus::kSuccess:
        response.answers.insert(response.answers.end(), result.records.begin(),
                                result.records.end());
        return response;
      case LookupStatus::kCname: {
        response.answers.insert(response.answers.end(), result.records.begin(),
                                result.records.end());
        const auto* cname =
            std::get_if<CnameRecord>(&result.records.front().rdata);
        zone = cname == nullptr ? nullptr : longest_match(zones, cname->target);
        // Target out of our authority: the client/resolver restarts there.
        if (zone == nullptr) return response;
        qname = cname->target;
        continue;
      }
      case LookupStatus::kDelegation:
        response.header.aa = false;
        response.authorities.insert(response.authorities.end(),
                                    result.records.begin(),
                                    result.records.end());
        response.additionals.insert(response.additionals.end(),
                                    result.glue.begin(), result.glue.end());
        return response;
      case LookupStatus::kNxDomain:
        response.header.rcode = RCode::kNxDomain;
        [[fallthrough]];
      case LookupStatus::kNoData:
        response.authorities.insert(response.authorities.end(),
                                    result.soa.begin(), result.soa.end());
        return response;
      case LookupStatus::kOutOfZone:
        return make_response(query, RCode::kRefused);
    }
  }
  return make_response(query, RCode::kServFail);  // CNAME chain too deep
}

}  // namespace mecdns::dns
