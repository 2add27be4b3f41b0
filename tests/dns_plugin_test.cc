// Plugin-chain server tests: the CoreDNS model and the split-namespace
// views at the heart of the paper's P1 design, and what the forwarder
// passes on of a hostile query or answer.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/plugin.h"
#include "dns/stub.h"
#include "dns/wire.h"
#include "mec/ingress.h"
#include "obs/trace.h"
#include "srv_flood.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

/// The cache plugin, calling `on_answer` as each downstream answer comes
/// back into it.
class ObservedCache : public CachePlugin {
 public:
  ObservedCache(std::shared_ptr<DnsCache> cache,
                std::function<void()> on_answer)
      : CachePlugin(std::move(cache)), on_answer_(std::move(on_answer)) {}
  bool serve(const Query& query, const QueryContext& ctx,
             Respond& respond) override {
    if (CachePlugin::serve(query, ctx, respond)) return true;
    respond = [this, respond = std::move(respond)](Message response) {
      on_answer_();
      respond(std::move(response));
    };
    return false;
  }

 private:
  std::function<void()> on_answer_;
};

class PluginTest : public ::testing::Test {
 protected:
  PluginTest() : net_(sim_, util::Rng(21)) {
    internal_client_ =
        net_.add_node("vnf", Ipv4Address::must_parse("10.240.0.7"));
    external_client_ =
        net_.add_node("mobile", Ipv4Address::must_parse("203.0.113.1"));
    server_node_ = net_.add_node("coredns", Ipv4Address::must_parse("10.240.0.2"));
    upstream_node_ =
        net_.add_node("upstream", Ipv4Address::must_parse("198.51.100.53"));
    net_.add_link(internal_client_, server_node_,
                  LatencyModel::constant(SimTime::micros(150)));
    net_.add_link(external_client_, server_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    net_.add_link(server_node_, upstream_node_,
                  LatencyModel::constant(SimTime::millis(5)));

    // Upstream: plain authoritative for the CDN domain.
    upstream_ = std::make_unique<AuthoritativeServer>(
        net_.runtime(upstream_node_), "upstream",
        LatencyModel::constant(SimTime::micros(300)));
    Zone& up_zone = upstream_->add_zone(DnsName::must_parse("mycdn.test"));
    up_zone.must_add(make_soa(DnsName::must_parse("mycdn.test"),
                              DnsName::must_parse("ns1.mycdn.test"), 1, 30,
                              30));
    up_zone.must_add(make_a(DnsName::must_parse("video.mycdn.test"),
                            Ipv4Address::must_parse("198.18.5.5"), 30));

    server_ = std::make_unique<PluginChainServer>(
        net_.runtime(server_node_), "coredns",
        LatencyModel::constant(SimTime::micros(400)));

    internal_zone_ = std::make_shared<Zone>(DnsName::must_parse("cluster.local"));
    internal_zone_->must_add(make_soa(DnsName::must_parse("cluster.local"),
                                      DnsName::must_parse("dns.cluster.local"),
                                      1, 30, 30));
    internal_zone_->must_add(
        make_a(DnsName::must_parse("traffic-router.cdn.svc.cluster.local"),
               Ipv4Address::must_parse("10.96.0.53"), 30));
    cache_ = std::make_shared<DnsCache>(128);
  }

  /// Builds the standard split-namespace layout used by several tests;
  /// `cache` replaces the public view's cache plugin.
  void build_split_views(std::unique_ptr<Plugin> cache = nullptr) {
    PluginChain& internal = server_->add_view(
        "internal", {simnet::Cidr::must_parse("10.240.0.0/24")});
    internal.add(std::make_unique<ZonePlugin>(internal_zone_));
    internal.add(std::make_unique<RefusePlugin>());

    PluginChain& pub = server_->add_default_view("public");
    pub.add(cache ? std::move(cache) : std::make_unique<CachePlugin>(cache_));
    pub.add(std::make_unique<ForwardPlugin>(
        DnsName::must_parse("mycdn.test"),
        std::vector<Endpoint>{
            {Ipv4Address::must_parse("198.51.100.53"), kDnsPort}},
        server_->transport()));
    pub.add(std::make_unique<RefusePlugin>());
  }

  StubResult resolve_from(simnet::NodeId node, const std::string& name,
                          obs::TraceSink* trace = nullptr) {
    StubResolver stub(net_.runtime(node),
                      Endpoint{Ipv4Address::must_parse("10.240.0.2"),
                               kDnsPort});
    stub.set_trace(trace);
    StubResult out;
    stub.resolve(DnsName::must_parse(name), RecordType::kA,
                 [&](const StubResult& result) { out = result; });
    sim_.run();
    return out;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId internal_client_;
  simnet::NodeId external_client_;
  simnet::NodeId server_node_;
  simnet::NodeId upstream_node_;
  std::unique_ptr<AuthoritativeServer> upstream_;
  std::unique_ptr<PluginChainServer> server_;
  std::shared_ptr<Zone> internal_zone_;
  std::shared_ptr<DnsCache> cache_;
};

TEST_F(PluginTest, ViewsSelectByClientAddress) {
  build_split_views();
  // Internal clients see the service-discovery namespace.
  const StubResult internal =
      resolve_from(internal_client_, "traffic-router.cdn.svc.cluster.local");
  EXPECT_TRUE(internal.ok);
  EXPECT_EQ(*internal.address, Ipv4Address::must_parse("10.96.0.53"));
  EXPECT_EQ(server_->view_queries("internal"), 1u);
  EXPECT_EQ(server_->view_queries("public"), 0u);

  // External (mobile) clients do NOT: the public view has no such zone.
  const StubResult external =
      resolve_from(external_client_, "traffic-router.cdn.svc.cluster.local");
  EXPECT_FALSE(external.ok);
  EXPECT_EQ(external.rcode, RCode::kRefused);
  EXPECT_EQ(server_->view_queries("internal"), 1u);
  EXPECT_EQ(server_->view_queries("public"), 1u);
}

TEST_F(PluginTest, PublicViewForwardsStubDomain) {
  build_split_views();
  const StubResult result = resolve_from(external_client_, "video.mycdn.test");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.5.5"));
  EXPECT_EQ(upstream_->stats().queries, 1u);
}

TEST_F(PluginTest, CachePluginShortCircuitsSecondQuery) {
  build_split_views();
  resolve_from(external_client_, "video.mycdn.test");
  EXPECT_EQ(upstream_->stats().queries, 1u);
  const StubResult second =
      resolve_from(external_client_, "video.mycdn.test");
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(upstream_->stats().queries, 1u);  // served from cache
  EXPECT_GE(cache_->stats().hits, 1u);
}

TEST_F(PluginTest, CachePluginCachesNegatives) {
  build_split_views();
  resolve_from(external_client_, "missing.mycdn.test");
  EXPECT_EQ(upstream_->stats().queries, 1u);
  const StubResult second =
      resolve_from(external_client_, "missing.mycdn.test");
  EXPECT_EQ(second.rcode, RCode::kNxDomain);
  EXPECT_EQ(upstream_->stats().queries, 1u);
}

TEST_F(PluginTest, NonMatchingQueryFallsThroughToRefuse) {
  build_split_views();
  const StubResult result =
      resolve_from(external_client_, "www.unrelated.org");
  EXPECT_EQ(result.rcode, RCode::kRefused);
  EXPECT_EQ(upstream_->stats().queries, 0u);
}

TEST_F(PluginTest, PluginSpansNestAndEndInnermostFirst) {
  obs::TraceSink sink(sim_);
  const auto span = [&sink](const std::string& name) -> const obs::SpanRecord* {
    for (const obs::SpanRecord* record : sink.by_component("plugin")) {
      if (record->name == name) return record;
    }
    return nullptr;
  };
  // Records which spans have ended when the answer passes back into the
  // public view's cache.
  bool forward_ended = false;
  bool cache_ended = true;
  build_split_views(std::make_unique<ObservedCache>(cache_, [&] {
    forward_ended = span("forward(mycdn.test)")->finished;
    cache_ended = span("cache")->finished;
  }));
  ASSERT_TRUE(resolve_from(external_client_, "video.mycdn.test", &sink).ok);

  const obs::SpanRecord* cache = span("cache");
  const obs::SpanRecord* forward = span("forward(mycdn.test)");
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(forward->parent, cache->id);
  EXPECT_EQ(sink.find(cache->parent)->component, "coredns");
  EXPECT_TRUE(forward_ended);  // forward's span ends first,
  EXPECT_FALSE(cache_ended);   // then the cache's
  EXPECT_TRUE(cache->finished);
  EXPECT_TRUE(forward->finished);
}

TEST_F(PluginTest, EmptyChainRefuses) {
  server_->add_default_view("empty");
  const StubResult result = resolve_from(external_client_, "x.test");
  EXPECT_EQ(result.rcode, RCode::kRefused);
}

TEST_F(PluginTest, ForwardPluginAddsEcsWhenConfigured) {
  PluginChain& pub = server_->add_default_view("public");
  auto forward = std::make_unique<ForwardPlugin>(
      DnsName::must_parse("mycdn.test"),
      std::vector<Endpoint>{{Ipv4Address::must_parse("198.51.100.53"),
                             kDnsPort}},
      server_->transport());
  forward->set_add_ecs(true, 24);
  pub.add(std::move(forward));

  const StubResult result = resolve_from(external_client_, "video.mycdn.test");
  EXPECT_TRUE(result.ok);
  // The upstream authoritative echoes ECS with scope 0; the forward relays
  // it back, so the client sees the subnet that was synthesized for it.
  ASSERT_TRUE(result.response.edns.has_value());
  ASSERT_TRUE(result.response.edns->client_subnet.has_value());
  EXPECT_EQ(result.response.edns->client_subnet->subnet().to_string(),
            "203.0.113.0/24");
}

TEST_F(PluginTest, ForwardPluginServfailsWhenUpstreamDead) {
  net_.set_node_up(upstream_node_, false);
  PluginChain& pub = server_->add_default_view("public");
  DnsTransport::Options fast_timeout;
  fast_timeout.timeout = SimTime::millis(50);
  pub.add(std::make_unique<ForwardPlugin>(
      DnsName::root(),
      std::vector<Endpoint>{{Ipv4Address::must_parse("198.51.100.53"),
                             kDnsPort}},
      server_->transport(), fast_timeout));
  const StubResult result = resolve_from(external_client_, "anything.test");
  EXPECT_EQ(result.rcode, RCode::kServFail);
}

// A ForwardPlugin whose first upstream is down answers from the second
// after one timeout.
TEST(ForwardFailover, SecondUpstreamAnswersWhenFirstIsDead) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(151));
  const simnet::NodeId client =
      net.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
  const simnet::NodeId proxy =
      net.add_node("proxy", Ipv4Address::must_parse("10.0.0.2"));
  const simnet::NodeId up1 =
      net.add_node("up1", Ipv4Address::must_parse("10.0.0.3"));
  const simnet::NodeId up2 =
      net.add_node("up2", Ipv4Address::must_parse("10.0.0.4"));
  net.add_link(client, proxy, LatencyModel::constant(SimTime::millis(1)));
  net.add_link(proxy, up1, LatencyModel::constant(SimTime::millis(1)));
  net.add_link(proxy, up2, LatencyModel::constant(SimTime::millis(1)));

  const auto make_auth = [&](simnet::NodeId node, const char* name,
                             const char* answer) {
    auto server = std::make_unique<AuthoritativeServer>(
        net.runtime(node), name, LatencyModel::constant(SimTime::micros(100)));
    Zone& zone = server->add_zone(DnsName::must_parse("f.test"));
    zone.must_add(make_a(DnsName::must_parse("www.f.test"),
                         Ipv4Address::must_parse(answer), 30));
    return server;
  };
  auto auth1 = make_auth(up1, "up1", "198.18.0.1");
  auto auth2 = make_auth(up2, "up2", "198.18.0.2");
  net.set_node_up(up1, false);  // primary upstream is down

  PluginChainServer server(net.runtime(proxy), "proxy",
                           LatencyModel::constant(SimTime::micros(200)));
  PluginChain& chain = server.add_default_view("default");
  DnsTransport::Options options;
  options.timeout = SimTime::millis(100);
  auto forward = std::make_unique<ForwardPlugin>(
      DnsName::root(),
      std::vector<Endpoint>{
          {Ipv4Address::must_parse("10.0.0.3"), kDnsPort},
          {Ipv4Address::must_parse("10.0.0.4"), kDnsPort}},
      server.transport(), options);
  ForwardPlugin* forward_ptr = forward.get();
  chain.add(std::move(forward));

  StubResolver stub(net.runtime(client),
                    Endpoint{Ipv4Address::must_parse("10.0.0.2"), kDnsPort},
                    DnsTransport::Options{SimTime::seconds(2), 0});
  StubResult out;
  stub.resolve(DnsName::must_parse("www.f.test"), RecordType::kA,
               [&](const StubResult& result) { out = result; });
  sim.run();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(*out.address, Ipv4Address::must_parse("198.18.0.2"));
  EXPECT_EQ(forward_ptr->failovers(), 1u);
  EXPECT_EQ(forward_ptr->upstream_failures(), 1u);
  // The answer took at least the failover timeout.
  EXPECT_GT(out.latency, SimTime::millis(100));
}

TEST_F(PluginTest, ZonePluginServesDelegationAndNegative) {
  internal_zone_->must_add(
      make_ns(DnsName::must_parse("sub.cluster.local"),
              DnsName::must_parse("ns.sub.cluster.local"), 30));
  PluginChain& view = server_->add_default_view("zone-only");
  view.add(std::make_unique<ZonePlugin>(internal_zone_));

  const StubResult referral =
      resolve_from(external_client_, "deep.sub.cluster.local");
  EXPECT_TRUE(referral.response.answers.empty());
  EXPECT_EQ(referral.response.authorities.size(), 1u);

  const StubResult missing =
      resolve_from(external_client_, "nothere.cluster.local");
  EXPECT_EQ(missing.rcode, RCode::kNxDomain);
}

/// A query for (name, type); with `ecs`, it carries EDNS (payload 1232)
/// with that client subnet.
Query query_for(const DnsName& name, RecordType type,
                std::optional<ClientSubnet> ecs = std::nullopt) {
  Query query = to_query(make_query(0x5150, name, type));
  if (ecs.has_value()) {
    query.edns = Edns{};
    query.edns->udp_payload_size = 1232;
    query.edns->client_subnet = ecs;
  }
  return query;
}

/// The answer `plugin` gives `query` at once, if any.
std::optional<Message> served(Plugin& plugin, const Query& query) {
  std::optional<Message> answer;
  Plugin::Respond respond = [&answer](Message&& response) {
    answer = std::move(response);
  };
  plugin.serve(query, QueryContext{}, respond);
  return answer;
}

TEST_F(PluginTest, RepliesToAnEdnsQueryCarryAnOptRecordAtScopeZero) {
  // RFC 6891 §6.1.1: a reply to a query with EDNS carries an OPT record.
  // None of these answers depends on the client subnet, so each reports
  // scope 0 (RFC 7871 §7.2.1).
  ClientSubnet ecs;
  ecs.address = Ipv4Address::must_parse("203.0.113.0");
  ecs.source_prefix = 24;
  const DnsName video = DnsName::must_parse("video.mycdn.test");
  cache_->insert(video, RecordType::kA,
                 {make_a(video, Ipv4Address::must_parse("198.18.5.5"), 30)},
                 SimTime::zero());
  ZonePlugin zone(internal_zone_);
  CachePlugin cache(cache_);
  RefusePlugin refuse;
  mec::IngressMonitor monitor(SimTime::seconds(1));
  // Any rate is at or over a threshold of 0 q/s: the guard sheds everything.
  mec::OverloadGuardPlugin guard(monitor, 0, mec::OverloadAction::kRefuse);
  struct Case {
    const char* what;
    Plugin& plugin;
    DnsName name;
    RCode rcode;
  };
  const Case cases[] = {
      {"zone", zone,
       DnsName::must_parse("traffic-router.cdn.svc.cluster.local"),
       RCode::kNoError},
      {"cache hit", cache, video, RCode::kNoError},
      {"refuse", refuse, video, RCode::kRefused},
      {"guard shed", guard, video, RCode::kRefused},
  };
  for (const Case& c : cases) {
    for (const bool with_edns : {true, false}) {
      SCOPED_TRACE(std::string(c.what) + (with_edns ? " edns" : " plain"));
      const std::optional<Message> answer = served(
          c.plugin, query_for(c.name, RecordType::kA,
                              with_edns ? std::optional(ecs) : std::nullopt));
      ASSERT_TRUE(answer.has_value());
      EXPECT_EQ(answer->header.rcode, c.rcode);
      // What goes on the wire: an OPT record in the additional section.
      const Message wire = decode(encode(*answer)).value();
      if (!with_edns) {
        EXPECT_FALSE(wire.edns.has_value());
        continue;
      }
      ASSERT_TRUE(wire.edns.has_value());
      ASSERT_TRUE(wire.edns->client_subnet.has_value());
      EXPECT_EQ(wire.edns->client_subnet->subnet(), ecs.subnet());
      EXPECT_EQ(wire.edns->client_subnet->scope_prefix, 0);
    }
  }
}

/// An AuthoritativeServer whose handle() a test calls directly.
class DirectAuthoritativeServer : public AuthoritativeServer {
 public:
  using AuthoritativeServer::AuthoritativeServer;
  using AuthoritativeServer::handle;
};

TEST_F(PluginTest, ZonePluginAndAuthoritativeServerAnswerAlike) {
  const DnsName origin = DnsName::must_parse("parity.test");
  const auto name = [](const std::string& label) {
    return DnsName::must_parse(label + ".parity.test");
  };
  const auto step = [&name](int i) {
    std::string label = "c";
    label += std::to_string(i);
    return name(label);
  };
  const auto address = [](int host) {
    return Ipv4Address::must_parse("198.18.0." + std::to_string(host));
  };
  auto zone = std::make_shared<Zone>(origin);
  DirectAuthoritativeServer auth(net_.runtime(server_node_), "auth",
                                 LatencyModel::constant(SimTime::zero()),
                                 5354);
  for (Zone* z : {zone.get(), &auth.add_zone(origin)}) {
    z->must_add(make_soa(origin, name("ns1"), 1, 30, 30));
    z->must_add(make_a(name("www"), address(1), 30));
    z->must_add(make_a(name("*.wild"), address(2), 30));
    z->must_add(make_cname(name("hop1"), name("hop2"), 30));
    z->must_add(make_cname(name("hop2"), name("www"), 30));
    z->must_add(make_cname(name("away"), DnsName::must_parse("else.net"), 30));
    z->must_add(make_ns(name("sub"), name("ns.sub"), 30));
    z->must_add(make_a(name("ns.sub"), address(53), 30));
    // c0 -> c1 -> ... -> c9: nine CNAME steps, one more than the bound.
    for (int i = 0; i < 9; ++i) {
      z->must_add(make_cname(step(i), step(i + 1), 30));
    }
    z->must_add(make_a(step(9), address(9), 30));
  }
  ZonePlugin plugin(zone);

  struct Case {
    const char* what;
    DnsName name;
    RecordType type;
    RCode rcode;
    std::size_t answers, authorities, additionals;
  };
  const Case cases[] = {
      {"hit", name("www"), RecordType::kA, RCode::kNoError, 1, 0, 0},
      {"wildcard", name("host.wild"), RecordType::kA, RCode::kNoError, 1, 0,
       0},
      {"multi-hop cname", name("hop1"), RecordType::kA, RCode::kNoError, 3,
       0, 0},
      {"cname leaves zone", name("away"), RecordType::kA, RCode::kNoError, 1,
       0, 0},
      {"delegation with glue", name("host.sub"), RecordType::kA,
       RCode::kNoError, 0, 1, 1},
      {"nodata", name("www"), RecordType::kTxt, RCode::kNoError, 0, 1, 0},
      {"nxdomain", name("nope"), RecordType::kA, RCode::kNxDomain, 0, 1, 0},
      {"chain past the bound", name("c0"), RecordType::kA, RCode::kServFail,
       0, 0, 0},
  };
  ClientSubnet ecs;
  ecs.address = Ipv4Address::must_parse("203.0.113.0");
  for (const Case& c : cases) {
    for (const bool with_edns : {false, true}) {
      SCOPED_TRACE(std::string(c.what) + (with_edns ? " edns" : " plain"));
      const Query query = query_for(
          c.name, c.type, with_edns ? std::optional(ecs) : std::nullopt);
      const std::optional<Message> from_plugin = served(plugin, query);
      std::optional<Message> from_server;
      auth.handle(query, QueryContext{}, [&from_server](Message&& response) {
        from_server = std::move(response);
      });
      ASSERT_TRUE(from_plugin.has_value());
      ASSERT_TRUE(from_server.has_value());
      EXPECT_EQ(from_plugin->header, from_server->header);
      EXPECT_EQ(from_plugin->header.rcode, c.rcode);
      EXPECT_EQ(from_plugin->questions, from_server->questions);
      EXPECT_EQ(from_plugin->answers, from_server->answers);
      EXPECT_EQ(from_plugin->authorities, from_server->authorities);
      EXPECT_EQ(from_plugin->additionals, from_server->additionals);
      EXPECT_EQ(from_plugin->edns, from_server->edns);
      EXPECT_EQ(from_plugin->answers.size(), c.answers);
      EXPECT_EQ(from_plugin->authorities.size(), c.authorities);
      EXPECT_EQ(from_plugin->additionals.size(), c.additionals);
    }
  }
}

/// A hand-driven upstream on the upstream node's port 5353: it hands each
/// datagram to `answer` and sends back what that returns.
class ScriptedUpstream {
 public:
  using Answer =
      std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>;
  ScriptedUpstream(simnet::Network& net, simnet::NodeId node, Answer answer)
      : net_(net), answer_(std::move(answer)) {
    socket_ = net.open_socket(node, kPort, [this](const simnet::Packet& p) {
      received_octets_ = p.payload.size();
      socket_->send(p.src, answer_(p.payload));
    });
  }
  ~ScriptedUpstream() { net_.close_socket(socket_); }
  ScriptedUpstream(const ScriptedUpstream&) = delete;
  ScriptedUpstream& operator=(const ScriptedUpstream&) = delete;
  static constexpr std::uint16_t kPort = 5353;
  std::size_t received_octets() const { return received_octets_; }

 private:
  simnet::Network& net_;
  Answer answer_;
  simnet::UdpSocket* socket_ = nullptr;
  std::size_t received_octets_ = 0;
};

/// Sends `wire` from the mobile client's node to the L-DNS as a raw
/// datagram and returns the decoded reply.
std::optional<Message> exchange(simnet::Simulator& sim, simnet::Network& net,
                                simnet::NodeId client,
                                std::span<const std::uint8_t> wire) {
  std::optional<Message> reply;
  simnet::UdpSocket* socket =
      net.open_socket(client, 40000, [&reply](const simnet::Packet& p) {
        auto decoded = decode(p.payload);
        if (decoded.ok()) reply = std::move(decoded.value());
      });
  socket->send({Ipv4Address::must_parse("10.240.0.2"), kDnsPort}, wire);
  sim.run();
  net.close_socket(socket);
  return reply;
}

TEST_F(PluginTest, ForwardRelaysOnlyTheQuestionOfAFloodedQuery) {
  // The 60,261-octet query would re-encode to 789,261 octets; the upstream
  // must see the client's question alone, in one ordinary datagram.
  Message upstream_saw;
  ScriptedUpstream upstream(
      net_, upstream_node_, [&](std::span<const std::uint8_t> wire) {
        upstream_saw = decode(wire).value();
        Message response = make_response(to_query(upstream_saw));
        response.answers.push_back(
            make_a(upstream_saw.question().name,
                   Ipv4Address::must_parse("198.18.5.5"), 30));
        return encode(response);
      });
  server_->add_default_view("public").add(std::make_unique<ForwardPlugin>(
      DnsName::must_parse("mycdn.test"),
      std::vector<Endpoint>{{Ipv4Address::must_parse("198.51.100.53"),
                             ScriptedUpstream::kPort}},
      server_->transport()));

  const Message query =
      make_query(0x4242, srv_flood_name(), RecordType::kA);
  const std::vector<std::uint8_t> flood = srv_flood(encode(query));
  ASSERT_EQ(flood.size(), kSrvFloodOctets);
  const std::optional<Message> reply =
      exchange(sim_, net_, external_client_, flood);

  EXPECT_LE(upstream.received_octets(), 512u);
  EXPECT_EQ(upstream_saw.questions, query.questions);
  EXPECT_TRUE(upstream_saw.answers.empty());
  EXPECT_TRUE(upstream_saw.authorities.empty());
  EXPECT_TRUE(upstream_saw.additionals.empty());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.id, 0x4242);
  EXPECT_EQ(reply->first_a(), Ipv4Address::must_parse("198.18.5.5"));
}

TEST_F(PluginTest, AnswerTooLargeToEncodeReachesClientAsTruncatedStub) {
  // The upstream answers with the SRV flood: it decodes, but no encoding
  // fits 65535 octets, so the L-DNS sends the TC=1 stub instead.
  ScriptedUpstream upstream(
      net_, upstream_node_, [](std::span<const std::uint8_t> wire) {
        std::vector<std::uint8_t> head(wire.begin(), wire.end());
        head[2] |= 0x80;  // QR: this is the response
        return srv_flood(head);
      });
  server_->add_default_view("public").add(std::make_unique<ForwardPlugin>(
      DnsName::root(),
      std::vector<Endpoint>{{Ipv4Address::must_parse("198.51.100.53"),
                             ScriptedUpstream::kPort}},
      server_->transport()));

  const Message query = make_query(
      0x4243, DnsName::must_parse("video.mycdn.test"), RecordType::kSrv);
  const std::optional<Message> reply =
      exchange(sim_, net_, external_client_, encode(query));

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.id, 0x4243);
  EXPECT_TRUE(reply->header.tc);
  EXPECT_EQ(reply->questions, query.questions);
  EXPECT_TRUE(reply->answers.empty());
  EXPECT_TRUE(reply->additionals.empty());
  EXPECT_EQ(server_->stats().truncated, 1u);
}

}  // namespace
}  // namespace mecdns::dns
