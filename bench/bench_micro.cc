// Microbenchmarks (google-benchmark) for the hot paths under the
// simulation: DNS wire codec, cache, consistent hashing, zone lookup, the
// event loop, and Zipf sampling.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cdn/consistent_hash.h"
#include "dns/cache.h"
#include "dns/wire.h"
#include "dns/zone.h"
#include "obs/journal.h"
#include "obs/perf.h"
#include "simnet/simulator.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "workload/zipf.h"

using namespace mecdns;

namespace {

dns::Message sample_message(std::size_t answers) {
  dns::Message msg = dns::make_query(
      1234, dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
      dns::RecordType::kA);
  msg.header.qr = true;
  msg.header.aa = true;
  for (std::size_t i = 0; i < answers; ++i) {
    msg.answers.push_back(dns::make_a(
        msg.questions.front().name,
        simnet::Ipv4Address(static_cast<std::uint32_t>(0x0a600000 + i)), 30));
  }
  msg.edns = dns::Edns{};
  dns::ClientSubnet ecs;
  ecs.address = simnet::Ipv4Address::must_parse("203.0.113.0");
  msg.edns->client_subnet = ecs;
  return msg;
}

void BM_WireEncode(benchmark::State& state) {
  const dns::Message msg =
      sample_message(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(msg));
  }
}
BENCHMARK(BM_WireEncode)->Arg(1)->Arg(8)->Arg(32);

void BM_WireDecode(benchmark::State& state) {
  const auto wire =
      dns::encode(sample_message(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto decoded = dns::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WireDecode)->Arg(1)->Arg(8)->Arg(32);

// The P-GW tap's parse: header and first question only, so its cost should
// not grow with the answer count.
void BM_WireDecodeHeader(benchmark::State& state) {
  const auto wire =
      dns::encode(sample_message(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto head = dns::decode_header(wire);
    benchmark::DoNotOptimize(head);
  }
}
BENCHMARK(BM_WireDecodeHeader)->Arg(1)->Arg(32);

void BM_CacheLookup(benchmark::State& state) {
  dns::DnsCache cache(8192);
  const auto now = simnet::SimTime::seconds(1);
  for (int i = 0; i < 1024; ++i) {
    const auto name =
        dns::DnsName::must_parse("host" + std::to_string(i) + ".example.com");
    cache.insert(name, dns::RecordType::kA,
                 {dns::make_a(name, simnet::Ipv4Address(0x0a000001u + i), 300)},
                 now);
  }
  const auto qname = dns::DnsName::must_parse("host512.example.com");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(qname, dns::RecordType::kA, now));
  }
}
BENCHMARK(BM_CacheLookup);

void BM_ConsistentHashPick(benchmark::State& state) {
  cdn::ConsistentHashRing ring(64);
  for (int i = 0; i < state.range(0); ++i) {
    ring.add("cache-" + std::to_string(i));
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.pick("object-" + std::to_string(++i)));
  }
}
BENCHMARK(BM_ConsistentHashPick)->Arg(4)->Arg(64)->Arg(256);

// Zone lookup by zone size (range 0) for a hit (range 1 = 0) and for a
// random-subdomain NXDOMAIN (range 1 = 1), the per-query cost a
// water-torture flood picks: both must stay flat as the zone grows.
void BM_ZoneLookup(benchmark::State& state) {
  const auto records = static_cast<std::uint32_t>(state.range(0));
  const bool nxdomain = state.range(1) != 0;
  dns::Zone zone(dns::DnsName::must_parse("example.com"));
  zone.must_add(dns::make_soa(dns::DnsName::must_parse("example.com"),
                              dns::DnsName::must_parse("ns1.example.com"), 1,
                              300, 3600));
  for (std::uint32_t i = 0; i < records; ++i) {
    const std::string n = std::to_string(i);
    zone.must_add(dns::make_a(
        dns::DnsName::must_parse("h" + n + ".example.com"),
        simnet::Ipv4Address(0xc0000200u + i), 60));
  }
  std::vector<dns::DnsName> qnames;
  if (nxdomain) {
    util::Rng rng(7);
    for (int i = 0; i < 1024; ++i) {
      const std::string n = std::to_string(rng.next() % 1000000000);
      qnames.push_back(dns::DnsName::must_parse("r" + n + ".example.com"));
    }
  } else {
    qnames.push_back(dns::DnsName::must_parse("h300.example.com"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone.lookup(qnames[i], dns::RecordType::kA));
    if (++i == qnames.size()) i = 0;
  }
}
BENCHMARK(BM_ZoneLookup)->ArgsProduct({{512, 2000, 65536}, {0, 1}});

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    simnet::Simulator sim;
    std::uint64_t counter = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule_at(simnet::SimTime::micros(static_cast<double>(i)),
                      [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEvents)->Arg(1024)->Arg(16384);

// Parse text -> inline wire-format DnsName -> back to text. The PR 7 hot
// path: the whole round trip should touch no heap for names <= 54 wire
// bytes (the inline capacity).
void BM_NameParseRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    auto name = dns::DnsName::parse("video.demo1.mycdn.ciab.test");
    benchmark::DoNotOptimize(name.value().to_string());
  }
}
BENCHMARK(BM_NameParseRoundTrip);

// schedule_after + drain: the pooled-event churn pattern every simulated
// timer exercises (schedule, fire, reschedule).
void BM_ScheduleAfterDrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simnet::Simulator sim;
    std::uint64_t counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_after(simnet::SimTime::micros(static_cast<double>(i % 7)),
                         [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleAfterDrain)->Arg(1024)->Arg(16384);

// Flat open-addressing map vs std::map on the DNS-cache key shape — the
// head-to-head behind moving every hot map off the red-black tree.
using CacheKey = std::pair<dns::DnsName, dns::RecordType>;
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return k.first.hash() * 31 + static_cast<std::size_t>(k.second);
  }
};

std::vector<CacheKey> cache_keys(std::size_t n) {
  std::vector<CacheKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.emplace_back(
        dns::DnsName::must_parse("host" + std::to_string(i) + ".example.com"),
        dns::RecordType::kA);
  }
  return keys;
}

void BM_FlatMapLookup(benchmark::State& state) {
  const auto keys = cache_keys(static_cast<std::size_t>(state.range(0)));
  util::FlatHashMap<CacheKey, std::uint64_t, CacheKeyHash> map;
  for (std::size_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i]));
    if (++i == keys.size()) i = 0;
  }
}
BENCHMARK(BM_FlatMapLookup)->Arg(64)->Arg(1024)->Arg(8192);

void BM_StdMapLookup(benchmark::State& state) {
  const auto keys = cache_keys(static_cast<std::size_t>(state.range(0)));
  std::map<CacheKey, std::uint64_t> map;
  for (std::size_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i]));
    if (++i == keys.size()) i = 0;
  }
}
BENCHMARK(BM_StdMapLookup)->Arg(64)->Arg(1024)->Arg(8192);

void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfGenerator zipf(static_cast<std::size_t>(state.range(0)), 0.9);
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

// Flight-recorder append: the journal's zero-steady-state-cost claim as a
// number. The ring is preallocated in the constructor, so record() must be
// a bounded POD copy — allocs_per_op is pinned at 0 (the counting
// allocator is linked into this binary; a regression shows up both here
// and in the obs_journal unit test's hard assert).
void BM_JournalAppend(benchmark::State& state) {
  obs::Journal journal(static_cast<std::size_t>(state.range(0)));
  simnet::SimTime at = simnet::SimTime::millis(1);
  const obs::PerfSnapshot snapshot = obs::PerfSnapshot::take();
  for (auto _ : state) {
    at = at + simnet::SimTime::millis(1);
    journal.record(at, obs::JournalKind::kGuardTrip, /*cell=*/2,
                   "ingress shedding", 800, 1234);
    benchmark::DoNotOptimize(journal.size());
  }
  const util::perf::Counters delta = snapshot.delta();
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(delta.allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_JournalAppend)->Arg(256)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
