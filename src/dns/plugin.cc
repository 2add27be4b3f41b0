#include "dns/plugin.h"

#include <utility>

#include "obs/trace.h"
#include "simnet/context.h"

namespace mecdns::dns {

// --- ZonePlugin --------------------------------------------------------------

bool ZonePlugin::serve(const Query& query, const QueryContext& /*ctx*/,
                       Respond& respond) {
  if (!query.question.name.is_subdomain_of(zone_->origin())) return false;
  respond(zone_answer({zone_.get(), 1}, query));
  return true;
}

// --- ForwardPlugin -----------------------------------------------------------

ForwardPlugin::ForwardPlugin(DnsName match,
                             std::vector<simnet::Endpoint> upstreams,
                             DnsTransport& transport,
                             DnsTransport::Options options)
    : match_(std::move(match)), transport_(transport) {
  if (upstreams.empty()) {
    throw std::invalid_argument("ForwardPlugin requires at least one upstream");
  }
  primary_ = upstreams.front();
  options.fallback_servers.assign(upstreams.begin() + 1, upstreams.end());
  options.on_failover = [this](std::size_t /*index*/, bool servfail) {
    on_failover(servfail);
  };
  options_ = std::make_shared<const DnsTransport::Options>(std::move(options));
}

void ForwardPlugin::on_failover(bool servfail) {
  ++failovers_;
  if (servfail) ++servfail_failovers_;
  if (journal_ != nullptr && !journal_failing_) {
    journal_failing_ = true;
    journal_->record(transport_.now(), obs::JournalKind::kLdnsFailover,
                     journal_cell_, "forward: upstream failover");
  }
}

bool ForwardPlugin::serve(const Query& query, const QueryContext& ctx,
                          Respond& respond) {
  if (!query.question.name.is_subdomain_of(match_)) return false;
  ++forwarded_;
  // The upstream gets the client's flags, question and EDNS: the Query,
  // which is all the server kept of the client's message.
  Message upstream_query;
  upstream_query.header = query.header;
  upstream_query.questions.push_back(query.question);
  upstream_query.edns = query.edns;
  if (add_ecs_ && (!upstream_query.edns.has_value() ||
                   !upstream_query.edns->client_subnet.has_value())) {
    if (!upstream_query.edns.has_value()) upstream_query.edns = Edns{};
    ClientSubnet ecs;
    ecs.address = ctx.client.addr;
    ecs.source_prefix = 24;
    upstream_query.edns->client_subnet = ecs;
  }
  // `query = query` copies into a non-const member, which moves without
  // allocating (a plain `query` capture would be a const copy).
  auto relay = [this, query = query, respond = std::move(respond)](
                   util::Result<Message>&& result, simnet::SimTime /*rtt*/) {
    if (!result.ok()) {
      ++exhausted_;
      respond(make_response(query, RCode::kServFail));
      return;
    }
    // The callback's SimTime is the transaction RTT, not a clock reading —
    // journal stamps come from the transport's clock.
    if (transport_.answered_by() == 0 && journal_ != nullptr &&
        journal_failing_) {
      journal_failing_ = false;
      journal_->record(transport_.now(), obs::JournalKind::kLdnsRestore,
                       journal_cell_, "forward: primary recovered");
    }
    Message& response = result.value();
    response.header.id = query.header.id;
    respond(std::move(response));
  };
  static_assert(DnsTransport::Callback::stores_inline<decltype(relay)>);
  transport_.query(primary_, std::move(upstream_query), options_,
                   std::move(relay));
  return true;
}

// --- CachePlugin -------------------------------------------------------------

bool CachePlugin::serve(const Query& query, const QueryContext& ctx,
                        Respond& respond) {
  const Question& q = query.question;
  const simnet::SimTime now = ctx.received;
  auto cached = cache_->lookup(q.name, q.type, now);
  obs::ambient_span().tag("cache", cached.has_value() ? "hit" : "miss");
  if (cached.has_value()) {
    Message response = make_response(
        query, cached->negative ? cached->rcode : RCode::kNoError);
    response.answers = cached->records;
    response.authorities = cached->soa;
    respond(std::move(response));
    return true;
  }
  auto observe = [this, query = query, now](Respond::Inner respond,
                                            Message&& response) {
    const Question& question = query.question;
    if (response.header.rcode != RCode::kServFail) {
      cache_->insert_response(question, response, now);
    } else if (auto stale =
                   cache_->lookup_stale(question.name, question.type, now)) {
      // RFC 8767: the authoritative path is failing — prefer a stale
      // answer (if the cache retains one) over propagating the failure.
      obs::ambient_span().tag("cache", "stale");
      Message rescued = make_response(
          query, stale->negative ? stale->rcode : RCode::kNoError);
      rescued.answers = stale->records;
      rescued.authorities = stale->soa;
      respond(std::move(rescued));
      return;
    }
    respond(std::move(response));
  };
  static_assert(
      Respond::wraps_inline<decltype(observe)>(DnsServer::kReplySize));
  respond.wrap(std::move(observe));
  return false;
}

// --- RefusePlugin ------------------------------------------------------------

bool RefusePlugin::serve(const Query& query, const QueryContext& /*ctx*/,
                         Respond& respond) {
  respond(make_response(query, RCode::kRefused));
  return true;
}

// --- PluginChain -------------------------------------------------------------

void PluginChain::run(const Query& query, const QueryContext& ctx,
                      Plugin::Respond&& respond) const {
  // One span per traversed plugin, each a child of the one before, open
  // until the answer comes back through this plugin's responder wrapper —
  // so a forward plugin's span covers its whole upstream round trip. A
  // query that is never answered (an overload guard dropping it) leaves
  // the spans unfinished, which the exporter marks. Untraced queries never
  // call name(), which builds a string.
  const bool traced = simnet::current_trace_token().active();
  simnet::TraceTokenGuard caller(simnet::current_trace_token());
  for (const auto& plugin : plugins_) {
    if (traced) {
      const obs::SpanRef span = obs::begin_span("plugin", plugin->name());
      respond.wrap([span](Plugin::Respond::Inner inner, Message&& response) {
        span.end();
        inner(std::move(response));
      });
      simnet::set_current_trace_token(span.token());
    }
    if (plugin->serve(query, ctx, respond)) return;
  }
  respond(make_response(query, RCode::kRefused));
}

// --- PluginChainServer -------------------------------------------------------

PluginChainServer::PluginChainServer(netio::Runtime& runtime, std::string name,
                                     simnet::LatencyModel processing_delay,
                                     std::uint16_t port,
                                     simnet::Ipv4Address addr)
    : DnsServer(runtime, std::move(name), processing_delay, port, addr) {
  transport_ = std::make_unique<DnsTransport>(runtime);
}

PluginChain& PluginChainServer::add_view(
    std::string view_name, std::vector<simnet::Cidr> client_subnets) {
  views_.push_back(View{std::move(client_subnets),
                        PluginChain(std::move(view_name)), 0});
  return views_.back().chain;
}

PluginChain& PluginChainServer::add_default_view(std::string view_name) {
  return add_view(std::move(view_name), {});
}

std::uint64_t PluginChainServer::view_queries(
    const std::string& view_name) const {
  for (const auto& view : views_) {
    if (view.chain.name() == view_name) return view.queries;
  }
  return 0;
}

void PluginChainServer::handle(const Query& query, const QueryContext& ctx,
                               Responder&& respond) {
  for (auto& view : views_) {
    const bool matches =
        view.subnets.empty() ||
        std::any_of(view.subnets.begin(), view.subnets.end(),
                    [&](const simnet::Cidr& cidr) {
                      return cidr.contains(ctx.client.addr);
                    });
    if (!matches) continue;
    ++view.queries;
    obs::ambient_span().tag("view", view.chain.name());
    view.chain.run(query, ctx, std::move(respond));
    return;
  }
  respond(make_response(query, RCode::kRefused));
}

}  // namespace mecdns::dns
