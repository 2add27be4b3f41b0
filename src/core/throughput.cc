#include "core/throughput.h"

#include <chrono>

#include "dns/stub.h"
#include "obs/journal.h"
#include "obs/perf.h"
#include "obs/provenance.h"
#include "workload/loadgen.h"

namespace mecdns::core {

std::string fig5_slug(Fig5Deployment deployment) {
  switch (deployment) {
    case Fig5Deployment::kMecLdnsMecCdns: return "mec-mec";
    case Fig5Deployment::kMecLdnsLanCdns: return "mec-lan";
    case Fig5Deployment::kMecLdnsWanCdns: return "mec-wan";
    case Fig5Deployment::kProviderLdns: return "provider";
    case Fig5Deployment::kGoogleDns: return "google";
    case Fig5Deployment::kCloudflareDns: return "cloudflare";
  }
  return "unknown";
}

bool fig5_from_slug(const std::string& slug, Fig5Deployment& out) {
  for (Fig5Deployment d : all_fig5_deployments()) {
    if (fig5_slug(d) == slug) {
      out = d;
      return true;
    }
  }
  return false;
}

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  if (denominator == 0) return 0.0;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

/// One deployment, start to finish, on the calling (worker) thread. The
/// perf snapshot brackets only the load window, and the whole simulation
/// runs on this thread, so the thread_local counter deltas are exact.
ThroughputOutput run_one(const ThroughputConfig& cfg, Fig5Deployment d,
                         std::uint64_t seed) {
  ThroughputOutput out;

  Fig5Testbed::Config tc;
  tc.deployment = d;
  tc.seed = seed;
  Fig5Testbed testbed(tc);
  simnet::Simulator& sim = testbed.simulator();

  // Armed-but-silent flight recorder: with no faults injected, every hook
  // sits on a transition edge that never fires, so the measured window
  // must stay at the unjournaled allocation ceiling.
  obs::Journal journal;
  if (cfg.journal) {
    testbed.ue().resolver().transport().set_journal(&journal);
    if (auto cache = testbed.site().public_dns_cache()) {
      cache->set_journal(&journal);
    }
    if (auto* guard = testbed.site().overload_guard()) {
      guard->set_journal(&journal);
    }
    if (auto* router = testbed.site().router()) {
      router->set_journal(&journal);
    }
  }

  // Prime delegation chains and caches so the measured window reflects
  // steady-state per-query cost, not one-time hierarchy walks.
  if (cfg.warmup_queries > 0) {
    testbed.measure_name(testbed.content_name(), cfg.warmup_queries,
                         simnet::SimTime::millis(200), /*warmup=*/0);
  }

  obs::LatencyHistogram latency;
  std::uint64_t failures = 0;
  workload::LoadGenerator* gen_ptr = nullptr;
  const dns::DnsName& name = testbed.content_name();
  dns::StubResolver& stub = testbed.ue().resolver();

  workload::LoadGenerator::Options lo;
  lo.ues = cfg.ues;
  lo.rate_hz = cfg.rate_hz;
  lo.duration = simnet::SimTime::seconds(cfg.duration_s);
  lo.closed_loop = cfg.closed_loop;
  lo.mean_think = simnet::SimTime::seconds(cfg.think_s);
  lo.seed = seed;

  workload::LoadGenerator gen(sim, lo, [&](std::uint32_t ue) {
    stub.resolve(name, dns::RecordType::kA,
                 [&, ue](const dns::StubResult& result) {
                   if (result.ok && result.address) {
                     latency.add(result.latency.to_millis());
                   } else {
                     ++failures;
                   }
                   gen_ptr->complete(ue);
                 });
  });
  gen_ptr = &gen;

  const std::uint64_t events_before = sim.executed();
  const auto wall_start = std::chrono::steady_clock::now();

  gen.start();
  // Counted from after start(): the arrival calendar's one-off arrays are
  // set-up, not a per-query cost.
  const obs::PerfSnapshot snapshot = obs::PerfSnapshot::take();
  sim.run();

  const auto wall_end = std::chrono::steady_clock::now();
  const util::perf::Counters delta = snapshot.delta();
  const std::uint64_t events = sim.executed() - events_before;

  ThroughputResult& r = out.result;
  r.scenario = fig5_slug(d);
  r.ues = cfg.ues;
  r.queries = gen.issued();
  r.failures = failures;
  r.duration_s = cfg.duration_s;
  r.qps_sim = cfg.duration_s > 0.0
                  ? static_cast<double>(r.queries) / cfg.duration_s
                  : 0.0;
  r.events = events;
  r.events_per_query = ratio(events, r.queries);
  r.dns_encoded_per_query = ratio(delta.dns_encoded, r.queries);
  r.dns_decoded_per_query = ratio(delta.dns_decoded, r.queries);
  r.wire_bytes_per_query =
      ratio(delta.dns_bytes_encoded + delta.dns_bytes_decoded, r.queries);
  r.mean_ms = latency.mean();
  r.p50_ms = latency.percentile(50.0);
  r.p99_ms = latency.percentile(99.0);
  r.max_ms = latency.max();
  r.peak_queue_depth = sim.max_queue_depth();
  r.alloc_counted = obs::alloc_counting_active();
  if (r.alloc_counted) {
    r.allocs_per_query = ratio(delta.allocs, r.queries);
    r.alloc_bytes_per_query = ratio(delta.alloc_bytes, r.queries);
  }

  const double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  r.wall_ms = wall_s * 1e3;
  if (wall_s > 0.0) {
    r.qps_wall = static_cast<double>(r.queries) / wall_s;
    r.events_per_sec_wall = static_cast<double>(events) / wall_s;
  }

  obs::export_perf(out.metrics, "perf.", delta, r.queries);
  out.metrics.add("loadgen.issued", gen.issued());
  out.metrics.add("loadgen.completed", gen.completed());
  out.metrics.add("loadgen.failures", failures);
  out.metrics.histogram("loadgen.lookup_ms").merge(latency);
  if (cfg.journal) {
    out.metrics.add("journal.recorded", journal.recorded());
    out.metrics.add("journal.dropped", journal.dropped());
  }
  out.metrics.add("sim.events", events);
  out.metrics.set_gauge_max("sim.queue_depth_peak",
                            static_cast<double>(sim.max_queue_depth()));
  testbed.export_metrics(out.metrics);
  return out;
}

void append_field(std::string& out, const char* key, std::uint64_t value,
                  bool first = false) {
  if (!first) out += ", ";
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(value);
}

void append_field(std::string& out, const char* key, double value,
                  bool first = false) {
  if (!first) out += ", ";
  out += '"';
  out += key;
  out += "\": ";
  out += obs::format_double(value);
}

void append_scenario(std::string& out, const char* key,
                     const std::string& slug) {
  out += '"';
  out += key;
  out += "\": ";
  obs::append_json_string(out, slug);
}

}  // namespace

std::vector<JobOutcome<ThroughputOutput>> run_throughput(
    const ThroughputConfig& config) {
  ParallelCampaign campaign(config.workers);
  const std::vector<Fig5Deployment>& deployments = config.deployments;
  return campaign.run<ThroughputOutput>(
      deployments.size(), [&config, &deployments](std::size_t index) {
        return run_one(config, deployments[index],
                       job_seed(config.seed, index));
      });
}

std::string throughput_json(const std::vector<ThroughputResult>& results,
                            std::uint64_t seed) {
  std::string out = "{\n  \"bench\": \"throughput\",\n  " +
                    obs::provenance_json("throughput", seed) +
                    ",\n  \"unit\": \"ms\",\n"
                    "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ThroughputResult& r = results[i];
    out += "    {";
    append_scenario(out, "scenario", r.scenario);
    append_field(out, "ues", static_cast<std::uint64_t>(r.ues));
    append_field(out, "queries", r.queries);
    append_field(out, "failures", r.failures);
    append_field(out, "duration_s", r.duration_s);
    append_field(out, "qps_sim", r.qps_sim);
    append_field(out, "events", r.events);
    append_field(out, "events_per_query", r.events_per_query);
    append_field(out, "dns_encoded_per_query", r.dns_encoded_per_query);
    append_field(out, "dns_decoded_per_query", r.dns_decoded_per_query);
    append_field(out, "wire_bytes_per_query", r.wire_bytes_per_query);
    append_field(out, "mean", r.mean_ms);
    append_field(out, "p50", r.p50_ms);
    append_field(out, "p99", r.p99_ms);
    append_field(out, "max", r.max_ms);
    append_field(out, "peak_queue_depth", r.peak_queue_depth);
    if (r.alloc_counted) {
      append_field(out, "allocs_per_query", r.allocs_per_query);
      append_field(out, "alloc_bytes_per_query", r.alloc_bytes_per_query);
    }
    out += '}';
    if (i + 1 < results.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::string throughput_wall_json(const std::vector<ThroughputResult>& results,
                                 std::size_t workers, std::uint64_t seed) {
  // Machine-dependent numbers live here, apart from the deterministic
  // artifact, so BENCH_throughput.json stays byte-comparable. The actual
  // worker count is meaningful in this artifact, so it appears beside the
  // meta block's fixed "any".
  std::string out = "{\n  \"bench\": \"throughput_wall\",\n  " +
                    obs::provenance_json("throughput_wall", seed) +
                    ",\n  \"workers\": ";
  out += std::to_string(workers);
  out += ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ThroughputResult& r = results[i];
    out += "    {";
    append_scenario(out, "scenario", r.scenario);
    append_field(out, "wall_ms", r.wall_ms);
    append_field(out, "qps_wall", r.qps_wall);
    append_field(out, "events_per_sec_wall", r.events_per_sec_wall);
    out += '}';
    if (i + 1 < results.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace mecdns::core
