#include "dns/transport.h"

#include <cctype>
#include <limits>
#include <utility>

#include "util/log.h"
#include "util/perfcount.h"

namespace mecdns::dns {

namespace {
/// Randomizes ASCII letter case per label character (DNS-0x20).
DnsName randomize_case(const DnsName& name, util::Rng& rng) {
  DnsName randomized;
  char scratch[64];
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    const std::string_view label = name.label(i);
    for (std::size_t k = 0; k < label.size(); ++k) {
      char c = label[k];
      if (std::isalpha(static_cast<unsigned char>(c)) && rng.bernoulli(0.5)) {
        c = static_cast<char>(std::isupper(static_cast<unsigned char>(c))
                                  ? std::tolower(c)
                                  : std::toupper(c));
      }
      scratch[k] = c;
    }
    if (!randomized.append_label({scratch, label.size()}).ok()) return name;
  }
  return randomized;
}

/// Byte-exact (case-sensitive) name equality, for 0x20 verification.
bool exact_equal(const DnsName& a, const DnsName& b) {
  return a.equals_exact(b);
}
}  // namespace

DnsTransport::DnsTransport(netio::Runtime& runtime, std::uint64_t id_seed)
    : rt_(runtime),
      rng_(0x20202020u ^ (runtime.rng_stream() << 24) ^ id_seed),
      next_id_(static_cast<std::uint16_t>(id_seed * 40503u % 65535u + 1)) {
  socket_ = rt_.open_socket(0, [this](const simnet::Packet& packet) {
    on_packet(packet);
  });
}

DnsTransport::~DnsTransport() {
  // Sockets are owned by the runtime; closing detaches our handler so late
  // packets cannot call into a destroyed object, and cancelling the retry
  // timers does the same for timeouts.
  *alive_ = false;
  for (auto& [id, p] : pending_) rt_.cancel(p.timer);
  rt_.close_socket(socket_);
}

void DnsTransport::query(const simnet::Endpoint& server, Message query,
                         const Options& options, Callback callback) {
  // With every one of the 65535 usable ids in flight, the id-hunt below
  // would spin forever. Fail fast instead — asynchronously, preserving the
  // "callback exactly once, never re-entrantly" contract. The event runs
  // under the caller's trace token, captured when it is scheduled.
  if (pending_.size() >= 0xFFFF) {
    ++id_exhausted_;
    rt_.schedule_after(
        simnet::SimTime::zero(),
        [alive = alive_, callback = std::move(callback)]() mutable {
          if (!*alive) return;
          callback(util::Err("transaction id space exhausted "
                             "(65535 queries in flight)"),
                   simnet::SimTime::zero());
        });
    return;
  }
  // Pick an unused transaction id.
  std::uint16_t id = next_id_;
  while (pending_.count(id) != 0 || id == 0) ++id;
  next_id_ = static_cast<std::uint16_t>(id + 1);
  query.header.id = id;
  if (options.use_0x20 && !query.questions.empty()) {
    query.questions.front().name =
        randomize_case(query.questions.front().name, rng_);
  }

  Pending pending;
  pending.server = server;
  pending.query = std::move(query);
  pending.options = options;
  pending.callback = std::move(callback);
  pending.first_sent = rt_.now();
  pending.span = obs::begin_span(
      "transport",
      "query " + (pending.query.questions.empty()
                      ? std::string("<empty>")
                      : pending.query.questions.front().name.to_string()));
  pending.caller = simnet::current_trace_token();
  pending_.emplace(id, std::move(pending));
  send_attempt(id);
}

void DnsTransport::send_attempt(std::uint16_t id) {
  Pending& p = pending_.at(id);
  // Any previously armed timer is now for a superseded attempt.
  rt_.cancel(p.timer);
  // Saturate instead of wrapping: with max_retries near INT_MAX a busy
  // transaction could overflow `attempts` into UB; a saturated counter
  // keeps retrying (the configured budget really is that large) and keeps
  // the backoff exponent finite.
  if (p.attempts < std::numeric_limits<int>::max()) ++p.attempts;
  // Deliveries and the timeout timer nest under the transaction's span.
  obs::AmbientSpanGuard ambient(p.span);
  ++util::perf::counters().dns_queries_sent;
  // The wire bytes are borrowed straight from the encoder's arena — the
  // socket copies them into a pooled buffer (sim) or onto the wire (live),
  // so no per-send vector is allocated.
  socket_->send(p.server, encode_view(p.query));
  p.timer =
      rt_.schedule_after(retry_interval(p), [this, id] { on_timeout(id); });
}

simnet::SimTime DnsTransport::retry_interval(const Pending& pending) {
  // Uncapped configs still need a finite timer: 10^attempts milliseconds
  // overflows a double into +inf, and casting that to the int64 nanosecond
  // clock is UB. One hour is beyond any sane retransmission interval.
  constexpr double kUncappedCeilingMs = 3600.0 * 1000.0;
  // The fast path (no backoff) must return the configured timeout
  // unmodified so default runs stay bit-identical.
  simnet::SimTime interval = pending.options.timeout;
  const simnet::SimTime cap = pending.options.max_backoff;
  if (pending.options.backoff_factor != 1.0 && pending.attempts > 1) {
    const double ceiling_ms =
        cap > simnet::SimTime::zero() ? cap.to_millis() : kUncappedCeilingMs;
    double ms = interval.to_millis();
    for (int i = 1; i < pending.attempts; ++i) {
      ms *= pending.options.backoff_factor;
      // Clamping inside the loop bounds both the value (no double
      // overflow) and the work (no O(attempts) multiplies once saturated).
      if (ms >= ceiling_ms) {
        ms = ceiling_ms;
        break;
      }
    }
    interval = simnet::SimTime::millis(ms);
  }
  if (cap > simnet::SimTime::zero() && interval > cap) interval = cap;
  return interval;
}

bool DnsTransport::fail_over(std::uint16_t id) {
  Pending& p = pending_.at(id);
  if (p.server_index >= p.options.fallback_servers.size()) return false;
  p.server = p.options.fallback_servers[p.server_index++];
  p.attempts = 0;
  ++failovers_;
  MECDNS_LOG(kDebug, "transport")
      << "failing over to server #" << p.server_index << " of "
      << p.options.fallback_servers.size() + 1;
  p.span.tag("failover", std::to_string(p.server_index));
  send_attempt(id);
  return true;
}

std::size_t DnsTransport::retarget_pending(const simnet::Endpoint& from,
                                           const simnet::Endpoint& to) {
  if (from == to) return 0;
  // Collect first: send_attempt re-arms timers, so keep the scan over the
  // flat map free of re-entrant sends.
  std::vector<std::uint16_t> moved;
  for (auto& [id, p] : pending_) {
    if (p.server == from) moved.push_back(id);
  }
  // One span per batch (inert without an ambient trace): the handoff
  // decision, tagged with how many in-flight queries it dragged along.
  obs::SpanRef batch_span = obs::begin_span("transport", "retarget-pending");
  batch_span.tag("to", to.to_string());
  batch_span.tag("moved", std::to_string(moved.size()));
  if (!moved.empty()) {
    ++retarget_batches_;
    if (journal_ != nullptr) {
      journal_->record(rt_.now(), obs::JournalKind::kRetarget,
                       journal_cell_, to.to_string().c_str(), moved.size());
    }
  }
  for (const std::uint16_t id : moved) {
    Pending& p = pending_.at(id);
    p.server = to;
    p.attempts = 0;  // the new server gets the full retry budget
    ++retargets_;
    p.span.tag("retarget", to.to_string());
    MECDNS_LOG(kDebug, "transport")
        << "retargeting in-flight query to " << to.to_string();
    send_attempt(id);
  }
  batch_span.end();
  return moved.size();
}

void DnsTransport::on_timeout(std::uint16_t id) {
  Pending& p = pending_.at(id);
  if (p.attempts <= p.options.max_retries) {
    ++retransmissions_;
    send_attempt(id);
    return;
  }
  ++timeouts_;
  if (fail_over(id)) return;
  Pending done = std::move(p);
  pending_.erase(id);
  MECDNS_LOG(kDebug, "transport")
      << "query timed out after " << done.attempts << " attempt(s)";
  done.span.tag("outcome", "timeout");
  done.span.tag("attempts", std::to_string(done.attempts));
  done.span.end();
  simnet::TraceTokenGuard context(done.caller);
  done.callback(util::Err("query timed out after " +
                          std::to_string(done.attempts) + " attempt(s)"),
                rt_.now() - done.first_sent);
}

void DnsTransport::on_packet(const simnet::Packet& packet) {
  auto decoded = decode(packet.payload);
  if (!decoded.ok()) return;  // malformed response: ignore, timeout handles it
  Message& response = decoded.value();
  if (!response.header.qr) return;

  const auto it = pending_.find(response.header.id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  // Anti-spoofing checks a real resolver performs: the response must come
  // from the queried server and echo the question.
  if (packet.src != p.server) return;
  ++util::perf::counters().dns_responses_received;
  if (!response.questions.empty() && !p.query.questions.empty()) {
    if (!(response.questions.front() == p.query.questions.front())) {
      return;
    }
    // 0x20 hardening: the echoed qname must match byte-exactly.
    if (p.options.use_0x20 &&
        !exact_equal(response.questions.front().name,
                     p.query.questions.front().name)) {
      return;
    }
  }

  // Truncated answer: retry once with a bigger advertised buffer.
  if (response.header.tc && p.options.bufsize_on_tc != 0) {
    const std::uint16_t current =
        p.query.edns.has_value() ? p.query.edns->udp_payload_size : 512;
    if (current < p.options.bufsize_on_tc) {
      ++tc_retries_;
      if (!p.query.edns.has_value()) p.query.edns = Edns{};
      p.query.edns->udp_payload_size = p.options.bufsize_on_tc;
      send_attempt(response.header.id);
      return;
    }
  }

  // SERVFAIL with fallback servers remaining: treat the server as failed
  // and move on, rather than delivering the failure to the caller.
  if (response.header.rcode == RCode::kServFail) {
    ++servfails_;
    if (p.server_index < p.options.fallback_servers.size()) {
      p.span.tag("servfail_from", std::to_string(p.server_index));
      fail_over(response.header.id);
      return;
    }
  }

  Pending done = std::move(p);
  pending_.erase(it);
  rt_.cancel(done.timer);  // the transaction is complete
  done.span.tag("rcode", to_string(response.header.rcode));
  if (done.attempts > 1) {
    done.span.tag("attempts", std::to_string(done.attempts));
  }
  done.span.end();
  simnet::TraceTokenGuard context(done.caller);
  done.callback(std::move(decoded), rt_.now() - done.first_sent);
}

}  // namespace mecdns::dns
