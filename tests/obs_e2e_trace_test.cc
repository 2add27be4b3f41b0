// End-to-end observability: a traced MEC lookup + content fetch must
// produce the paper's latency breakdown as spans (L-DNS serve, C-DNS
// route, cache get) whose sim-time durations nest inside the client's
// total, and metrics consistent with the component counters.
#include <gtest/gtest.h>

#include <string>

#include "cdn/cache_server.h"
#include "core/experiment.h"
#include "core/mec_cdn.h"
#include "dns/stub.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mecdns::core {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class ObsE2eTest : public ::testing::Test {
 protected:
  ObsE2eTest() : net_(sim_, util::Rng(17)), sink_(sim_) {
    MecCdnSite::Config config;
    config.answer_ttl = 0;  // every lookup reaches the C-DNS
    site_ = std::make_unique<MecCdnSite>(net_, config);

    client_ = net_.add_node("mobile", Ipv4Address::must_parse("203.0.113.1"));
    net_.add_link(client_, site_->gateway(),
                  LatencyModel::constant(SimTime::millis(1)));

    cdn::ContentCatalog catalog;
    catalog.add_series(dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
                       "seg", 4, 1000);
    site_->add_delivery_service("demo1", catalog);
  }

  dns::StubResult traced_resolve(const std::string& name) {
    dns::StubResolver stub(net_.runtime(client_), site_->ldns_endpoint(),
                           dns::DnsTransport::Options{SimTime::millis(500),
                                                      0});
    stub.set_trace(&sink_);
    dns::StubResult out;
    stub.resolve(dns::DnsName::must_parse(name), dns::RecordType::kA,
                 [&](const dns::StubResult& result) { out = result; });
    sim_.run();
    return out;
  }

  const obs::SpanRecord* only_span(const std::string& component) {
    const auto spans = sink_.by_component(component);
    return spans.size() == 1 ? spans[0] : nullptr;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  obs::TraceSink sink_;
  std::unique_ptr<MecCdnSite> site_;
  simnet::NodeId client_;
};

TEST_F(ObsE2eTest, TracedLookupCoversEveryResolutionStage) {
  const auto result = traced_resolve("video.demo1.mycdn.ciab.test");
  ASSERT_TRUE(result.ok);

  // One root: the stub's lookup. Below it: the transport RPC, the L-DNS
  // serve, its plugins, and the C-DNS serve — >= 3 span levels.
  const obs::SpanRecord* root = only_span("stub");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
  EXPECT_TRUE(root->finished);
  ASSERT_NE(root->tag("rcode"), nullptr);
  EXPECT_EQ(*root->tag("rcode"), "NOERROR");

  EXPECT_GE(sink_.by_component("transport").size(), 1u);
  ASSERT_GE(sink_.by_component("mec-coredns").size(), 1u);  // L-DNS serve
  ASSERT_GE(sink_.by_component("mec-cdns").size(), 1u);     // C-DNS route
  EXPECT_GE(sink_.by_component("plugin").size(), 1u);
  EXPECT_GE(sink_.max_depth(), 3u);

  // Every span belongs to this one lookup and nests inside the client's
  // total: children of the root must not outlast it, and the sum of the
  // root's direct children's durations cannot exceed the client-observed
  // time (the stages are sequential).
  // A drained run must leave no span open — an unfinished span means a
  // context guard was dropped without end().
  EXPECT_EQ(sink_.unfinished(), 0u);
  SimTime child_sum = SimTime::zero();
  for (const auto& span : sink_.spans()) {
    ASSERT_TRUE(span.finished) << span.component << "/" << span.name;
    EXPECT_EQ(sink_.root_of(span.id), root->id);
    EXPECT_GE(span.start, root->start);
    EXPECT_LE(span.end, root->end);
    if (span.parent == root->id) child_sum = child_sum + span.duration();
  }
  EXPECT_LE(child_sum, root->duration());
  EXPECT_GT(child_sum, SimTime::zero());

  // The C-DNS tagged its routing decision with the chosen cache.
  const auto cdns = sink_.by_component("mec-cdns");
  bool routed = false;
  for (const auto* span : cdns) {
    if (span->tag("route") != nullptr && *span->tag("route") == "routed") {
      routed = true;
      EXPECT_NE(span->tag("cache"), nullptr);
    }
  }
  EXPECT_TRUE(routed);
}

TEST_F(ObsE2eTest, TracedContentFetchReachesAnEdgeCache) {
  const auto result = traced_resolve("video.demo1.mycdn.ciab.test");
  ASSERT_TRUE(result.ok);
  sink_.clear();

  cdn::ContentClient content(net_.runtime(client_));
  obs::SpanRef fetch = obs::begin_root_span(&sink_, "client", "fetch");
  bool fetched = false;
  {
    obs::AmbientSpanGuard ambient(fetch);
    content.get(Endpoint{*result.address, cdn::kContentPort},
                cdn::Url::must_parse(
                    "video.demo1.mycdn.ciab.test/segment0000"),
                [&](util::Result<cdn::ContentResponse> response, SimTime) {
                  fetched = response.ok();
                });
  }
  sim_.run();
  fetch.end();
  ASSERT_TRUE(fetched);

  // content client span + the cache's serve span, nested under the fetch.
  ASSERT_GE(sink_.by_component("content").size(), 1u);
  bool cache_span = false;
  for (const auto& span : sink_.spans()) {
    if (span.component.rfind("edge-cache-", 0) == 0) {
      cache_span = true;
      EXPECT_TRUE(span.finished);
      EXPECT_NE(span.tag("cache"), nullptr);  // hit or miss
    }
  }
  EXPECT_TRUE(cache_span);
  EXPECT_GE(sink_.max_depth(), 3u);
}

TEST_F(ObsE2eTest, MetricsAgreeWithComponentCounters) {
  dns::StubResolver stub(net_.runtime(client_), site_->ldns_endpoint(),
                         dns::DnsTransport::Options{SimTime::millis(500), 0});
  QueryRunner runner(net_, stub);
  obs::Registry registry;
  runner.set_observers(nullptr, &registry);
  QueryRunner::Options options;
  options.queries = 10;
  options.warmup = 0;
  const SeriesResult series =
      runner.run(dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
                 dns::RecordType::kA, options);
  site_->export_metrics(registry);

  EXPECT_EQ(registry.counter_value("runner.queries"), 10u);
  EXPECT_EQ(registry.histogram("runner.lookup_ms").count(),
            series.samples.size() - series.failures());
  // Sim-time histogram mean must match the series' own mean.
  EXPECT_NEAR(registry.histogram("runner.lookup_ms").mean(),
              series.totals().mean(), 1e-9);
  // The L-DNS saw at least one query per measured lookup, and the C-DNS
  // routed each uncached one to some cache.
  EXPECT_GE(registry.counter_value("site.ldns.queries"), 10u);
  EXPECT_GE(registry.counter_value("site.cdns.routed"), 1u);
  std::uint64_t selected = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name.rfind("site.cdns.selected.", 0) == 0) selected += value;
  }
  EXPECT_EQ(selected, registry.counter_value("site.cdns.routed"));
}

}  // namespace
}  // namespace mecdns::core
