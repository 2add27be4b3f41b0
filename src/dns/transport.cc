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
  // packets cannot call into a destroyed object, and cancelling every
  // slot's timer (retry or id-exhausted error; a free slot's is stale)
  // does the same for timers.
  slots_.for_each([this](Pending& p) { rt_.cancel(p.timer); });
  rt_.close_socket(socket_);
}

void DnsTransport::query(const simnet::Endpoint& server, Message&& query,
                         std::shared_ptr<const Options> options,
                         Callback&& callback) {
  if (options == nullptr) {
    static const std::shared_ptr<const Options> defaults =
        std::make_shared<const Options>();
    options = defaults;
  }
  const std::uint32_t slot = slots_.acquire();
  Pending& p = slots_[slot];
  // With every one of the 65535 usable ids in flight, the id-hunt below
  // would spin forever. Fail fast instead — asynchronously, preserving the
  // "callback exactly once, never re-entrantly" contract: the slot holds
  // the callback under no id, and a zero-delay timer delivers the error.
  if (pending_.size() >= 0xFFFF) {
    ++id_exhausted_;
    p.callback = std::move(callback);
    p.first_sent = rt_.now();
    p.server_index = 0;
    p.span = obs::SpanRef();
    p.caller = simnet::current_trace_token();
    p.timer = rt_.schedule_after(simnet::SimTime::zero(), [this, slot] {
      complete(slot, util::Err("transaction id space exhausted "
                               "(65535 queries in flight)"));
    });
    return;
  }
  // Pick an unused transaction id.
  std::uint16_t id = next_id_;
  while (pending_.count(id) != 0 || id == 0) ++id;
  next_id_ = static_cast<std::uint16_t>(id + 1);

  pending_.emplace(id, slot);
  p.server = server;
  p.query = std::move(query);
  p.query.header.id = id;
  if (options->use_0x20 && !p.query.questions.empty()) {
    p.query.questions.front().name =
        randomize_case(p.query.questions.front().name, rng_);
  }
  p.options = std::move(options);
  p.callback = std::move(callback);
  p.first_sent = rt_.now();
  p.attempts = 0;
  p.server_index = 0;
  p.timer = netio::kNoTimer;
  // Untraced queries skip building the span's name.
  p.span = obs::SpanRef();
  if (simnet::current_trace_token().active()) {
    p.span = obs::begin_span(
        "transport",
        "query " + (p.query.questions.empty()
                        ? std::string("<empty>")
                        : p.query.questions.front().name.to_string()));
  }
  p.caller = simnet::current_trace_token();
  send_attempt(p);
}

void DnsTransport::send_attempt(Pending& p) {
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
  // The wire bytes are borrowed straight from the encoder's buffer — the
  // socket copies them into a pooled buffer (sim) or onto the wire (live),
  // so no per-send vector is allocated.
  socket_->send(p.server, encode_view(p.query));
  p.timer = rt_.schedule_after(
      retry_interval(p), [this, id = p.query.header.id] { on_timeout(id); });
}

simnet::SimTime DnsTransport::retry_interval(const Pending& pending) {
  // Uncapped configs still need a finite timer: 10^attempts milliseconds
  // overflows a double into +inf, and casting that to the int64 nanosecond
  // clock is UB. One hour is beyond any sane retransmission interval.
  constexpr double kUncappedCeilingMs = 3600.0 * 1000.0;
  // The fast path (no backoff) must return the configured timeout
  // unmodified so default runs stay bit-identical.
  simnet::SimTime interval = pending.options->timeout;
  const simnet::SimTime cap = pending.options->max_backoff;
  if (pending.options->backoff_factor != 1.0 && pending.attempts > 1) {
    const double ceiling_ms =
        cap > simnet::SimTime::zero() ? cap.to_millis() : kUncappedCeilingMs;
    double ms = interval.to_millis();
    for (int i = 1; i < pending.attempts; ++i) {
      ms *= pending.options->backoff_factor;
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

bool DnsTransport::fail_over(Pending& p, bool servfail) {
  const Options& options = *p.options;
  if (p.server_index >= options.fallback_servers.size()) return false;
  p.server = options.fallback_servers[p.server_index++];
  p.attempts = 0;
  MECDNS_LOG(kDebug, "transport")
      << "failing over to server #" << p.server_index << " of "
      << options.fallback_servers.size() + 1;
  p.span.tag("failover", std::to_string(p.server_index));
  if (options.on_failover) {
    options.on_failover(p.server_index, servfail);
  } else {
    ++failovers_;
  }
  send_attempt(p);
  return true;
}

void DnsTransport::complete(std::uint32_t slot,
                            util::Result<Message>&& result) {
  Pending& p = slots_[slot];
  rt_.cancel(p.timer);  // the transaction is complete
  p.timer = netio::kNoTimer;
  p.span.end();
  const simnet::SimTime rtt = rt_.now() - p.first_sent;
  const simnet::TraceToken caller = p.caller;
  const std::size_t answered_by = p.server_index;
  // The callback leaves the slot before it runs: it may start queries that
  // reuse the slot, or destroy this transport.
  Callback callback = std::move(p.callback);
  p.options.reset();
  slots_.release(slot);
  answered_by_ = answered_by;
  simnet::TraceTokenGuard context(caller);
  callback(std::move(result), rtt);
}

std::size_t DnsTransport::retarget_pending(const simnet::Endpoint& from,
                                           const simnet::Endpoint& to) {
  if (from == to) return 0;
  // Collect first: send_attempt re-arms timers, so keep the scan over the
  // flat map free of re-entrant sends.
  std::vector<std::uint16_t> moved;
  for (const auto& [id, slot] : pending_) {
    if (slots_[slot].server == from) moved.push_back(id);
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
    Pending& p = slots_[pending_.at(id)];
    p.server = to;
    p.attempts = 0;  // the new server gets the full retry budget
    ++retargets_;
    p.span.tag("retarget", to.to_string());
    MECDNS_LOG(kDebug, "transport")
        << "retargeting in-flight query to " << to.to_string();
    send_attempt(p);
  }
  batch_span.end();
  return moved.size();
}

void DnsTransport::on_timeout(std::uint16_t id) {
  const std::uint32_t slot = pending_.at(id);
  Pending& p = slots_[slot];
  p.timer = netio::kNoTimer;  // this firing
  if (p.attempts <= p.options->max_retries) {
    ++retransmissions_;
    send_attempt(p);
    return;
  }
  ++timeouts_;
  if (fail_over(p, /*servfail=*/false)) return;
  MECDNS_LOG(kDebug, "transport")
      << "query timed out after " << p.attempts << " attempt(s)";
  p.span.tag("outcome", "timeout");
  p.span.tag("attempts", std::to_string(p.attempts));
  pending_.erase(id);
  complete(slot,
           util::Err("query timed out after " + std::to_string(p.attempts) +
                     " attempt(s)"));
}

void DnsTransport::on_packet(const simnet::Packet& packet) {
  auto decoded = decode(packet.payload);
  if (!decoded.ok()) return;  // malformed response: ignore, timeout handles it
  const Message& response = decoded.value();
  if (!response.header.qr) return;

  const std::uint16_t id = response.header.id;
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const std::uint32_t slot = it->second;
  Pending& p = slots_[slot];
  const Options& options = *p.options;
  // Anti-spoofing checks a real resolver performs: the response must come
  // from the queried server and echo the question.
  if (packet.src != p.server) return;
  ++util::perf::counters().dns_responses_received;
  if (!response.questions.empty() && !p.query.questions.empty()) {
    if (!(response.questions.front() == p.query.questions.front())) {
      return;
    }
    // 0x20 hardening: the echoed qname must match byte-exactly.
    if (options.use_0x20 &&
        !exact_equal(response.questions.front().name,
                     p.query.questions.front().name)) {
      return;
    }
  }

  // Truncated answer: retry once with a bigger advertised buffer.
  if (response.header.tc && options.bufsize_on_tc != 0) {
    const std::uint16_t current =
        p.query.edns.has_value() ? p.query.edns->udp_payload_size : 512;
    if (current < options.bufsize_on_tc) {
      ++tc_retries_;
      if (!p.query.edns.has_value()) p.query.edns = Edns{};
      p.query.edns->udp_payload_size = options.bufsize_on_tc;
      send_attempt(p);
      return;
    }
  }

  // SERVFAIL with fallback servers remaining: treat the server as failed
  // and move on, rather than delivering the failure to the caller.
  if (response.header.rcode == RCode::kServFail) {
    ++servfails_;
    if (p.server_index < options.fallback_servers.size()) {
      p.span.tag("servfail_from", std::to_string(p.server_index));
      fail_over(p, /*servfail=*/true);
      return;
    }
  }

  p.span.tag("rcode", to_string(response.header.rcode));
  if (p.attempts > 1) {
    p.span.tag("attempts", std::to_string(p.attempts));
  }
  pending_.erase(id);
  complete(slot, std::move(decoded));
}

}  // namespace mecdns::dns
