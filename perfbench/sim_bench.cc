// Simulated workloads over the Figure 5 testbed.
//
//   sim-mec-steady     P1+P2: MEC L-DNS with the in-cluster C-DNS, paper
//                      defaults (answer_ttl 0), one hot name. Exercises the
//                      event queue, hop forwarding, the codec and the two
//                      MEC servers; never the resolver cache.
//   sim-provider-zipf  The provider's recursive L-DNS with cacheable routed
//                      answers (answer_ttl 30) and Zipf(0.9) names over 10^6
//                      hosts, far more than its 8192-entry cache: lookups,
//                      inserts, evictions and the recursive miss path.
//
// Both are open-loop Poisson load from workload::LoadGenerator over 10^6
// UEs. A run repeats set-up + warm-up + measured window several times with
// the same seed: the wall-clock metrics are medians over the chunks of all
// repetitions' windows, and every deterministic output (query and event
// counts, simulated latency percentiles, cache counters) must be identical
// across them.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "common.h"
#include "core/fig5.h"
#include "dns/cache.h"
#include "dns/wire.h"
#include "obs/perf.h"
#include "step_tracer.h"
#include "util/rng.h"
#include "workload/loadgen.h"
#include "workload/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mecdns;

constexpr std::uint32_t kUes = 1'000'000;
/// Aggregate offered load in queries per simulated second (the rate
/// bench_throughput's default population offers).
constexpr double kOfferedQps = 2000.0;
constexpr std::size_t kZipfNames = 1'000'000;
constexpr double kZipfSkew = 0.9;
constexpr std::uint32_t kProviderAnswerTtl = 30;
/// Datagrams and resolver queries kept for the codec and cache replays.
constexpr std::size_t kMaxCaptured = 20000;

struct SimSpec {
  const char* name;
  bool provider;
  /// Simulated seconds of load before the window. The MEC path holds no
  /// cache, and with no warm-up its window counts events exactly as
  /// bench_throughput does. The provider's cache needs one answer TTL: it
  /// is capacity-bound and turns over every few seconds, and its per-query
  /// counts are flat from 20 s of warm-up on.
  double warm_s;
  /// Simulated window seconds of all repetitions together per second of
  /// --seconds, sized so a run takes about --seconds of wall time.
  double window_per_run_s;
  /// Untraced repetitions of set-up, warm-up and window per run.
  int reps;
  /// Timed set-ups per run for setup_s: the repetitions' own plus
  /// set-up-only passes. A set-up (testbed build + LoadGenerator start)
  /// takes ~30 ms, so a few more of them make its median steady at no cost.
  int setups;
};

constexpr SimSpec kSpecs[] = {
    {"sim-mec-steady", false, 0.0, 18.0, 3, 9},
    {"sim-provider-zipf", true, 30.0, 11.0, 2, 9},
};

/// Pre-drawn query names: the distinct names a run uses and the order it
/// issues them in.
struct Inputs {
  std::vector<dns::DnsName> names;
  std::vector<std::uint32_t> sequence;
};

Inputs draw_inputs(const SimSpec& spec, std::uint64_t seed,
                   std::size_t lookups) {
  Inputs in;
  if (!spec.provider) return in;
  workload::ZipfGenerator zipf(kZipfNames, kZipfSkew);
  util::Rng rng(seed ^ 0x5a17f00dULL);
  std::vector<std::uint32_t> ranks(lookups);
  for (auto& rank : ranks) rank = static_cast<std::uint32_t>(zipf.sample(rng));
  std::vector<std::uint32_t> distinct = ranks;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  in.names.reserve(distinct.size());
  for (std::uint32_t rank : distinct) {
    std::string name = std::to_string(rank);
    name.insert(0, 1, 'o');
    name += ".demo1.mycdn.ciab.test";
    in.names.push_back(dns::DnsName::must_parse(name));
  }
  in.sequence.reserve(lookups);
  for (std::uint32_t rank : ranks) {
    in.sequence.push_back(static_cast<std::uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), rank) -
        distinct.begin()));
  }
  return in;
}

/// What one repetition must reproduce exactly for a given seed.
struct Fingerprint {
  std::uint64_t lookups = 0;  ///< issued in the window
  std::uint64_t failures = 0;
  std::uint64_t events = 0;
  std::uint64_t dns_msgs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_scan_steps = 0;
  std::size_t peak_queue_depth = 0;
  double sim_p50_ms = 0.0;
  double sim_p99_ms = 0.0;

  std::string str() const {
    std::ostringstream out;
    out << "lookups=" << lookups << " failures=" << failures
        << " events=" << events << " dns_msgs=" << dns_msgs
        << " wire_bytes=" << wire_bytes << " cache_hits=" << cache_hits
        << " cache_misses=" << cache_misses
        << " evictions=" << cache_evictions
        << " scan_steps=" << cache_scan_steps
        << " peak_queue_depth=" << peak_queue_depth
        << " sim_p50_ms=" << format_number(sim_p50_ms)
        << " sim_p99_ms=" << format_number(sim_p99_ms);
    return out.str();
  }
};

/// Copies of datagrams and resolver queries seen in a traced window.
class Capture {
 public:
  Capture(simnet::Network& net, simnet::NodeId resolver) {
    datagrams_.reserve(kMaxCaptured);
    for (simnet::NodeId node = 0; node < net.node_count(); ++node) {
      net.add_tap(node, [this, node, resolver, &net](const simnet::Packet& p,
                                                     simnet::SimTime now) {
        if (p.hops.size() == 1 && datagrams_.size() < kMaxCaptured) {
          datagrams_.push_back(p.payload);  // at its origin: once per datagram
        }
        if (node == resolver && p.dst.port == dns::kDnsPort &&
            net.find_node(p.dst.addr) == resolver &&
            resolver_queries_.size() < kMaxCaptured) {
          resolver_queries_.emplace_back(p.payload, now);
        }
      });
    }
  }

  const std::vector<std::vector<std::uint8_t>>& datagrams() const {
    return datagrams_;
  }
  const std::vector<std::pair<std::vector<std::uint8_t>, simnet::SimTime>>&
  resolver_queries() const {
    return resolver_queries_;
  }

 private:
  std::vector<std::vector<std::uint8_t>> datagrams_;
  std::vector<std::pair<std::vector<std::uint8_t>, simnet::SimTime>>
      resolver_queries_;
};

/// Simulated latency of each correct answer in the window. The buffer is
/// allocated and touched once per run, before any RSS baseline, and reused
/// by every repetition.
struct Samples {
  explicit Samples(std::size_t capacity) : sim_ms(capacity) { sim_ms.clear(); }
  std::vector<double> sim_ms;
};

/// Wall-clock figures of one chunk of kChunk consecutive window lookups,
/// bounded by the wall and CPU clocks read when its first lookup and the
/// next chunk's first lookup were issued.
struct Chunk {
  double qps = 0.0;
  double cpu_us_per_query = 0.0;
};
constexpr std::uint32_t kChunk = 10000;

struct RepResult {
  Fingerprint fp;
  std::uint64_t attempted = 0;  ///< warm-up and window lookups
  std::uint64_t failed = 0;
  /// Testbed build + LoadGenerator start. The warm-up is load like the
  /// window's, so it is timed apart (warm_s): as part of setup_s, the host's
  /// drift moved the provider's median 29% between two sets of ten runs.
  double setup_s = 0.0;
  double warm_s = 0.0;
  double window_s = 0.0;
  double user_s = 0.0;
  /// VmRSS at the end of the window less VmRSS before the testbed was
  /// built: the program's memory, without the benchmark's inputs and
  /// sample buffers.
  double rss_mib = 0.0;
  bool sim_p99_supported = false;
  std::vector<Chunk> chunks;
  util::perf::Counters perf;
  // Traced repetitions only.
  std::unique_ptr<StepTracer> tracer;
  std::unique_ptr<Capture> capture;
};

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// One set-up + warm-up + window, start to finish.
class Rep {
 public:
  Rep(const SimSpec& spec, const Inputs& inputs, Samples& samples,
      CpuSet& cpus, std::uint64_t seed, double window_s)
      : spec_(spec),
        inputs_(inputs),
        samples_(samples),
        cpus_(cpus),
        seed_(seed),
        window_s_(window_s) {}

  /// With `setup_only`, returns after the set-up with only setup_s filled.
  RepResult run(bool traced, bool setup_only = false) {
    RepResult out;
    samples_.sim_ms.clear();
    malloc_trim(0);  // hand back what the previous repetition freed
    const double rss_before = status_value("VmRSS");
    cpus_.next();

    const std::int64_t setup_start = now_ns();
    core::Fig5Testbed::Config config;
    config.seed = seed_;
    if (spec_.provider) {
      config.deployment = core::Fig5Deployment::kProviderLdns;
      config.answer_ttl = kProviderAnswerTtl;
    }
    testbed_ = std::make_unique<core::Fig5Testbed>(config);
    simnet::Simulator& sim = testbed_->simulator();
    window_start_ = sim.now() + simnet::SimTime::seconds(spec_.warm_s);

    workload::LoadGenerator::Options lo;
    lo.ues = kUes;
    lo.rate_hz = kOfferedQps / kUes;
    lo.duration = simnet::SimTime::seconds(spec_.warm_s + window_s_);
    lo.seed = seed_;
    workload::LoadGenerator gen(sim, lo,
                                [this](std::uint32_t) { issue(); });
    gen.start();
    const std::int64_t warm_start = now_ns();
    out.setup_s = static_cast<double>(warm_start - setup_start) * 1e-9;
    if (setup_only) return out;
    sim.run_until(window_start_);
    out.warm_s = static_cast<double>(now_ns() - warm_start) * 1e-9;

    dns::CacheStats cache_before;
    if (spec_.provider) cache_before = testbed_->provider_ldns()->cache().stats();
    if (traced) {
      out.tracer = std::make_unique<StepTracer>(testbed_->network());
      out.capture = std::make_unique<Capture>(
          testbed_->network(), testbed_->provider_ldns_node());
      tracer_ = out.tracer.get();
    }
    const std::uint64_t events_before = sim.executed();
    const obs::PerfSnapshot perf = obs::PerfSnapshot::take();
    double user0 = 0.0, sys0 = 0.0, user1 = 0.0, sys1 = 0.0;
    self_cpu_seconds(user0, sys0);
    const std::int64_t window_start = now_ns();
    if (tracer_ != nullptr) {
      tracer_->run();
    } else {
      sim.run();
    }
    const std::int64_t window_end = now_ns();
    self_cpu_seconds(user1, sys1);
    out.perf = perf.delta();
    tracer_ = nullptr;

    out.window_s = static_cast<double>(window_end - window_start) * 1e-9;
    out.user_s = user1 - user0;
    out.rss_mib = (status_value("VmRSS") - rss_before) / 1024.0;
    Fingerprint& fp = out.fp;
    fp.lookups = window_issued_;
    fp.failures = window_failures_;
    fp.events = sim.executed() - events_before;
    fp.dns_msgs = out.perf.dns_encoded + out.perf.dns_decoded;
    fp.wire_bytes = out.perf.dns_bytes_encoded + out.perf.dns_bytes_decoded;
    fp.peak_queue_depth = sim.max_queue_depth();
    if (spec_.provider) {
      const dns::CacheStats& after = testbed_->provider_ldns()->cache().stats();
      fp.cache_hits = after.hits - cache_before.hits;
      fp.cache_misses = after.misses - cache_before.misses;
      fp.cache_evictions = after.evictions - cache_before.evictions;
      fp.cache_scan_steps =
          after.eviction_scan_steps - cache_before.eviction_scan_steps;
    }
    fp.sim_p50_ms = percentile(samples_.sim_ms, 50.0).value;
    const Percentile sim_p99 = percentile(samples_.sim_ms, 99.0);
    fp.sim_p99_ms = sim_p99.value;
    out.sim_p99_supported = sim_p99.supported();
    out.chunks = chunks();
    out.attempted = gen.issued();
    out.failed = window_failures_ + warm_failures_ +
                 (gen.issued() - completed_);  // never answered at all
    return out;
  }

 private:
  void issue() {
    const dns::DnsName& name =
        spec_.provider
            ? inputs_.names[inputs_.sequence[next_name_++ %
                                             inputs_.sequence.size()]]
            : testbed_->content_name();
    dns::StubResolver& stub = testbed_->ue().resolver();
    const bool in_window = testbed_->simulator().now() >= window_start_;
    if (in_window && window_issued_++ % kChunk == 0) {
      marks_.push_back({now_ns(), process_cpu_ns()});
      cpus_.next();
    }
    // A small capture keeps the callback inside std::function's in-place
    // buffer, so the benchmark adds no allocation per lookup.
    auto done = [this, in_window](const dns::StubResult& r) {
      complete(in_window, r);
    };
    if (tracer_ != nullptr) {
      const std::int64_t start = now_ns();
      stub.resolve(name, dns::RecordType::kA, std::move(done));
      tracer_->add_issue_span(now_ns() - start);
    } else {
      stub.resolve(name, dns::RecordType::kA, std::move(done));
    }
  }

  void complete(bool in_window, const dns::StubResult& r) {
    ++completed_;
    // Every answer must be a cache the active C-DNS routes this client to.
    const bool ok =
        r.ok && r.address.has_value() &&
        (spec_.provider ? testbed_->is_cloud_cache(*r.address)
                        : testbed_->is_mec_cache(*r.address));
    if (!in_window) {
      if (!ok) ++warm_failures_;
      return;
    }
    if (!ok) {
      ++window_failures_;
      return;
    }
    samples_.sim_ms.push_back(r.latency.to_millis());
  }

  /// The full chunks between consecutive marks.
  std::vector<Chunk> chunks() const {
    std::vector<Chunk> out;
    for (std::size_t c = 0; c + 1 < marks_.size(); ++c) {
      Chunk chunk;
      chunk.qps = kChunk * 1e9 /
                  static_cast<double>(marks_[c + 1].wall_ns - marks_[c].wall_ns);
      chunk.cpu_us_per_query =
          static_cast<double>(marks_[c + 1].cpu_ns - marks_[c].cpu_ns) * 1e-3 /
          kChunk;
      out.push_back(chunk);
    }
    return out;
  }

  struct Mark {
    std::int64_t wall_ns;
    std::int64_t cpu_ns;
  };

  const SimSpec& spec_;
  const Inputs& inputs_;
  Samples& samples_;
  CpuSet& cpus_;  ///< every set-up and chunk moves to the next CPU
  std::uint64_t seed_;
  double window_s_;
  std::unique_ptr<core::Fig5Testbed> testbed_;
  simnet::SimTime window_start_;
  StepTracer* tracer_ = nullptr;
  std::size_t next_name_ = 0;
  std::uint64_t window_issued_ = 0;
  std::uint64_t window_failures_ = 0;
  std::uint64_t warm_failures_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<Mark> marks_;
};

/// Cost a now_ns() pair adds to a span, subtracted from per-operation spans.
double clock_span_ns() {
  constexpr int kCalls = 200000;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kCalls; ++i) now_ns();
  return static_cast<double>(now_ns() - start) / kCalls;
}

/// simnet.queue_ns_per_event: schedule_at + step with no-op callbacks the
/// size of a packet-carrying event, at a steady queue depth of `depth`.
double replay_queue(std::size_t depth, std::uint64_t seed) {
  constexpr std::size_t kOps = 500000;
  struct Capture160 {
    std::uint8_t bytes[160];
  };
  util::Rng rng(seed);
  std::vector<std::int64_t> delays(kOps + depth);
  for (auto& d : delays) d = static_cast<std::int64_t>(rng.uniform_int(30'000'000));
  simnet::Simulator sim;
  const Capture160 payload{};
  std::size_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_after(simnet::SimTime::nanos(delays[i]),
                       [payload, &fired] { fired += payload.bytes[0] + 1; });
  }
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < kOps; ++i) {
    sim.step();
    sim.schedule_after(simnet::SimTime::nanos(delays[depth + i]),
                       [payload, &fired] { fired += payload.bytes[0] + 1; });
  }
  const std::int64_t ns = now_ns() - start;
  return fired == kOps ? static_cast<double>(ns) / kOps : -1.0;
}

struct CacheReplay {
  double lookup_ns = 0.0;
  double insert_ns = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t inserts = 0;
};

/// dns.cache.lookup_ns / insert_ns: the resolver's client query stream
/// replayed into a fresh cache of the resolver's capacity.
CacheReplay replay_cache(
    const std::vector<std::pair<std::vector<std::uint8_t>, simnet::SimTime>>&
        queries,
    std::size_t capacity, simnet::Ipv4Address answer) {
  CacheReplay out;
  std::vector<std::pair<dns::DnsName, simnet::SimTime>> stream;
  stream.reserve(queries.size());
  for (const auto& [bytes, at] : queries) {
    auto decoded = dns::decode(bytes);
    if (decoded.ok() && !decoded.value().questions.empty()) {
      stream.emplace_back(decoded.value().questions[0].name, at);
    }
  }
  const double clock_ns = clock_span_ns();
  dns::DnsCache cache(capacity);
  double lookup_ns = 0.0;
  double insert_ns = 0.0;
  for (const auto& [name, at] : stream) {
    std::int64_t start = now_ns();
    const bool hit = cache.lookup(name, dns::RecordType::kA, at).has_value();
    lookup_ns += static_cast<double>(now_ns() - start) - clock_ns;
    ++out.lookups;
    if (hit) continue;
    dns::RecordList records;
    records.push_back(dns::make_a(name, answer, kProviderAnswerTtl));
    start = now_ns();
    cache.insert(name, dns::RecordType::kA, std::move(records), at);
    insert_ns += static_cast<double>(now_ns() - start) - clock_ns;
    ++out.inserts;
  }
  if (out.lookups > 0) out.lookup_ns = lookup_ns / out.lookups;
  if (out.inserts > 0) out.insert_ns = insert_ns / out.inserts;
  return out;
}

void print_rep(const SimSpec& spec, int rep, const RepResult& r) {
  std::cout << spec.name << "  rep " << rep << " outputs: " << r.fp.str()
            << "; setup_s " << format_number(r.setup_s) << ", warm-up "
            << format_number(r.warm_s) << " s, rss growth "
            << format_number(r.rss_mib) << " MiB\n";
}

void report_traced(const SimSpec& spec, const RepResult& plain,
                   const RepResult& traced, Outcome& outcome) {
  const std::string w = spec.name;
  const Fingerprint& fp = traced.fp;
  const std::uint64_t q = fp.lookups;
  const StepTracer& t = *traced.tracer;
  const double untraced_ns_per_query = ratio(plain.window_s * 1e9, q);

  std::vector<std::pair<std::string, double>> layers;
  for (int i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    layers.emplace_back(layer_metric(layer), ratio(t.layer_ns(layer), q));
  }
  layers.emplace_back("simnet.idle_timer_ns_per_query", ratio(t.idle_ns(), q));
  layers.emplace_back("workload.loadgen.ns_per_query", ratio(t.pump_ns(), q));
  layers.emplace_back("dns.stub.issue_ns", ratio(t.issue_ns(), q));
  layers.emplace_back("unmatched_send_ns_per_query", ratio(t.unresolved_ns(), q));
  double attributed = 0.0;
  for (const auto& [name, ns] : layers) {
    report(w, name, ns, "ns");
    attributed += ns;
  }
  const double unattributed = untraced_ns_per_query - attributed;
  report(w, "untraced_ns_per_query", untraced_ns_per_query, "ns");
  report(w, "traced_ns_per_query", ratio(t.total_ns(), q), "ns");
  report(w, "unattributed_ns_per_query", unattributed, "ns",
         "untraced - sum of the layers above");
  const double overhead = traced.window_s / plain.window_s;
  report(w, "trace.overhead_ratio", overhead, "ratio",
         "untraced qps_wall / traced qps_wall");

  report(w, "simnet.events_per_query", ratio(fp.events, q), "count");
  report(w, "simnet.idle_timers_per_query", ratio(t.idle_timers(), q), "count");
  report(w, "simnet.step_ns", ratio(t.total_ns(), t.steps()), "ns");
  const double queue_ns = replay_queue(fp.peak_queue_depth, 7);
  report(w, "simnet.queue_ns_per_event", queue_ns, "ns",
         "replay at depth " + std::to_string(fp.peak_queue_depth));
  report(w, "simnet.peak_queue_depth",
         static_cast<double>(fp.peak_queue_depth), "count");
  report(w, "simnet.hops_per_query", ratio(t.arrivals(), q), "count");

  if (spec.provider) {
    const double lookups = static_cast<double>(fp.cache_hits + fp.cache_misses);
    report(w, "dns.cache.hit_ratio",
           lookups > 0 ? fp.cache_hits / lookups : 0.0, "ratio");
    report(w, "dns.cache.evictions_per_query", ratio(fp.cache_evictions, q),
           "count");
    report(w, "dns.cache.scan_steps_per_eviction",
           ratio(fp.cache_scan_steps, fp.cache_evictions), "count");
    const CacheReplay cache =
        replay_cache(traced.capture->resolver_queries(), 8192,
                     simnet::Ipv4Address::must_parse("198.51.100.20"));
    report(w, "dns.cache.lookup_ns", cache.lookup_ns, "ns",
           std::to_string(cache.lookups) + " lookups replayed");
    report(w, "dns.cache.insert_ns", cache.insert_ns, "ns",
           std::to_string(cache.inserts) + " inserts replayed");
  }

  const CodecReplay codec = replay_codec(traced.capture->datagrams());
  const double msgs = ratio(fp.dns_msgs, q);
  const double wire = ratio(fp.wire_bytes, q);
  report(w, "dns.codec.msgs_per_query", msgs, "count");
  report(w, "dns.codec.wire_bytes_per_query", wire, "B");
  report(w, "dns.codec.encode_ns", codec.encode_ns, "ns",
         std::to_string(codec.messages) + " datagrams replayed");
  report(w, "dns.codec.decode_ns", codec.decode_ns, "ns");
  if (obs::alloc_counting_active()) {
    report(w, "util.allocs_per_query", ratio(plain.perf.allocs, q), "count");
    report(w, "util.alloc_bytes_per_query", ratio(plain.perf.alloc_bytes, q),
           "B");
  }
  const double user_us = ratio(plain.user_s * 1e6, q);
  report(w, "user_us_per_query", user_us, "us");

  outcome.check(codec.messages > 0, "no datagrams captured for the codec replay");
  outcome.check(queue_ns > 0.0, "queue replay lost events");
  auto& m = outcome.metrics;
  m["events_per_query"] = {ratio(fp.events, q), "count"};
  m["loop.ns_per_event"] = {ratio(t.total_ns(), t.steps()), "ns"};
  m["dns.codec.msgs_per_query"] = {msgs, "count"};
  m["dns.codec.wire_bytes_per_query"] = {wire, "B"};
  m["dns.codec.encode_ns"] = {codec.encode_ns, "ns"};
  m["dns.codec.decode_ns"] = {codec.decode_ns, "ns"};
  m["user_us_per_query"] = {user_us, "us"};
  m["unattributed_ns_per_query"] = {unattributed, "ns"};
}

}  // namespace

int run_sim(const RunArgs& args) {
  const SimSpec* spec = nullptr;
  for (const SimSpec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::cerr << "error: unknown workload " << args.workload << '\n';
    return 2;
  }
  // The traced run makes one untraced and one traced repetition.
  const int reps = args.trace ? 1 : spec->reps;
  const double window_s = spec->window_per_run_s * args.seconds / spec->reps;
  const std::size_t lookups = static_cast<std::size_t>(
      kOfferedQps * (spec->warm_s + window_s) * 1.05 + 1000);
  const Inputs inputs = draw_inputs(*spec, args.seed, lookups);
  std::cout << spec->name << "  seed " << args.seed << ", " << kUes
            << " UEs, " << kOfferedQps << " q/s simulated, window "
            << window_s << " sim-s after " << spec->warm_s << " sim-s warm-up"
            << '\n';

  Outcome outcome;
  CpuSet cpus;
  Samples samples(static_cast<std::size_t>(kOfferedQps * window_s * 1.1) +
                  1000);
  std::vector<RepResult> results;
  for (int rep = 0; rep < reps; ++rep) {
    results.push_back(
        Rep(*spec, inputs, samples, cpus, args.seed, window_s).run(false));
    print_rep(*spec, rep, results.back());
  }
  // The traced repetition stays alive until its report is printed: the
  // tracer and capture taps belong to its network.
  Rep traced_rep(*spec, inputs, samples, cpus, args.seed, window_s);
  if (args.trace) {
    results.push_back(traced_rep.run(true));
    print_rep(*spec, 1, results.back());
  }

  std::vector<double> setup, warm, rss, qps, cpu;
  for (int i = reps; i < (args.trace ? 0 : spec->setups); ++i) {
    Rep rep(*spec, inputs, samples, cpus, args.seed, window_s);
    setup.push_back(rep.run(false, true).setup_s);
  }
  for (const RepResult& r : results) {
    outcome.attempted += r.attempted;
    outcome.failed += r.failed;
    outcome.check(r.fp.str() == results.front().fp.str(),
                  "repetitions of one seed differ in deterministic outputs");
    outcome.check(r.sim_p99_supported,
                  "too few samples beyond the simulated p99");
    if (r.tracer != nullptr) continue;
    setup.push_back(r.setup_s);
    warm.push_back(r.warm_s);
    rss.push_back(r.rss_mib);
    for (const Chunk& c : r.chunks) {
      qps.push_back(c.qps);
      cpu.push_back(c.cpu_us_per_query);
    }
  }
  outcome.check(outcome.failed == 0, "lookups without a correct answer");
  outcome.check(results.front().fp.lookups > 0, "no lookups in the window");
  outcome.check(!qps.empty(), "no complete chunk in the window");

  const std::string w = spec->name;
  const RepResult& first = results.front();
  report(w, "fail_ratio",
         ratio(static_cast<double>(outcome.failed), outcome.attempted), "ratio",
         std::to_string(outcome.failed) + " of " +
             std::to_string(outcome.attempted));
  const std::string sim_samples =
      "simulated, output check, " +
      std::to_string(first.fp.lookups - first.fp.failures) + " samples";
  report(w, "sim.p50_ms", first.fp.sim_p50_ms, "ms", sim_samples);
  report(w, "sim.p99_ms", first.fp.sim_p99_ms, "ms", sim_samples);

  auto& m = outcome.metrics;
  if (!args.trace) {
    const std::string n = "percentile of " + std::to_string(qps.size()) +
                          " chunks of " + std::to_string(kChunk) +
                          " lookups over " + std::to_string(reps) +
                          " repetitions; median ";
    m["setup_s"] = {median(setup), "s"};
    m["qps_wall"] = {percentile(qps, kFastPercentile).value, "queries/s"};
    m["cpu_us_per_query"] = {percentile(cpu, 100.0 - kFastPercentile).value,
                             "us"};
    m["rss_mb"] = {median(rss), "MiB"};
    report(w, "setup_s", m["setup_s"].value, "s",
           "median of " + std::to_string(setup.size()) +
               " set-ups: testbed build + LoadGenerator start");
    if (spec->warm_s > 0.0) {
      report(w, "warmup_s", median(warm), "s",
             "median of " + std::to_string(warm.size()) + " warm-ups of " +
                 format_number(spec->warm_s) + " sim-s");
    }
    report(w, "qps_wall", m["qps_wall"].value, "queries/s",
           format_number(kFastPercentile) + "th " + n +
               format_number(median(qps)));
    report(w, "cpu_us_per_query", m["cpu_us_per_query"].value, "us",
           format_number(100.0 - kFastPercentile) + "th " + n +
               format_number(median(cpu)));
    report(w, "rss_mb", m["rss_mb"].value, "MiB",
           "VmRSS growth from before the testbed to the end of the window, "
           "median of " + std::to_string(reps) + "; process VmHWM " +
               format_number(status_value("VmHWM") / 1024.0));
  } else {
    report_traced(*spec, results[0], results[1], outcome);
  }
  return finish(outcome);
}

}  // namespace perfbench
