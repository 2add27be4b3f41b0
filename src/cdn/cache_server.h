// CDN cache server: LRU object cache with parent/origin miss fetch.
//
// The edge tier of the MEC-CDN (and the mid/cloud tiers behind it). On a
// miss the server fetches from its configured parent — origin or a
// higher-tier cache — then answers the client; the extra round trip is what
// makes cache locality visible in end-to-end latency.
#pragma once

#include <cstdint>
#include <list>
#include <string>

#include "cdn/content.h"
#include "netio/runtime.h"
#include "obs/trace.h"
#include "simnet/context.h"
#include "simnet/latency.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/slot_pool.h"

namespace mecdns::cdn {

struct CacheServerStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t parent_fetches = 0;
  std::uint64_t parent_failures = 0;
  std::uint64_t not_found = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_served = 0;

  double hit_rate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
};

/// A content request waiting out its server's service time. The service
/// event captures the slot; the server cancels it if it dies first.
struct InService {
  ContentRequest request;
  simnet::Endpoint client;
  netio::TimerId timer = netio::kNoTimer;
};

class CacheServer {
 public:
  struct Config {
    std::uint64_t capacity_bytes = 256ull * 1024 * 1024;
    /// Per-request service time (lookup + response serialization).
    simnet::LatencyModel service_time =
        simnet::LatencyModel::constant(simnet::SimTime::micros(200));
    /// Parent to fetch misses from; unset means answer 404 on miss.
    std::optional<simnet::Endpoint> parent;
    simnet::SimTime parent_timeout = simnet::SimTime::millis(2000);
  };

  /// Serves `port` (0 = ephemeral) at `addr` on `runtime`.
  CacheServer(netio::Runtime& runtime, std::string name, Config config,
              std::uint16_t port = kContentPort,
              simnet::Ipv4Address addr = simnet::Ipv4Address());
  ~CacheServer();
  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  const std::string& name() const { return name_; }
  simnet::Endpoint endpoint() const { return socket_->endpoint(); }
  const CacheServerStats& stats() const { return stats_; }

  /// Pre-populates the cache (content pushed to the edge at deploy time).
  void warm(const ContentObject& object);
  bool cached(const Url& url) const { return index_.count(url) != 0; }
  std::uint64_t used_bytes() const { return used_bytes_; }

  /// Drops every cached object (chaos cache-content wipe): subsequent
  /// requests miss and re-fetch from the parent. Stats are preserved.
  void wipe();

 private:
  void on_packet(const simnet::Packet& packet);
  void serve(const ContentRequest& request, const simnet::Endpoint& client);
  void respond(const ContentRequest& request, const simnet::Endpoint& client,
               std::uint16_t status, std::uint64_t size, bool from_cache);
  void touch(const Url& url);
  void insert(const ContentObject& object);

  netio::Runtime& rt_;
  std::string name_;
  Config config_;
  netio::DatagramSocket* socket_;
  netio::DatagramSocket* parent_socket_;
  util::Rng rng_;
  /// Requests in their service time, each with the event that serves it.
  util::SlotPool<InService> in_service_;

  struct UrlHash {
    std::size_t operator()(const Url& url) const { return url.hash(); }
  };
  struct U64Hash {
    std::size_t operator()(std::uint64_t v) const {
      v *= 0x9e3779b97f4a7c15ULL;
      return v ^ (v >> 32);
    }
  };

  // LRU: most-recent at front.
  std::list<ContentObject> lru_;
  util::FlatHashMap<Url, std::list<ContentObject>::iterator, UrlHash> index_;
  std::uint64_t used_bytes_ = 0;

  struct PendingFetch {
    ContentRequest request;
    simnet::Endpoint client;
    netio::TimerId timeout = netio::kNoTimer;
    obs::SpanRef span;          ///< "parent-fetch" span (inert if untraced)
    simnet::TraceToken owner;   ///< serve span, restored for the response
  };
  util::FlatHashMap<std::uint64_t, PendingFetch, U64Hash> pending_;
  std::uint64_t next_fetch_id_ = 1;
  CacheServerStats stats_;
};

/// Origin server: owns a catalog, never misses (the content's home).
class OriginServer {
 public:
  OriginServer(netio::Runtime& runtime, std::string name,
               ContentCatalog catalog,
               simnet::LatencyModel service_time =
                   simnet::LatencyModel::constant(simnet::SimTime::millis(2)),
               std::uint16_t port = kContentPort,
               simnet::Ipv4Address addr = simnet::Ipv4Address());
  ~OriginServer();
  OriginServer(const OriginServer&) = delete;
  OriginServer& operator=(const OriginServer&) = delete;

  simnet::Endpoint endpoint() const { return socket_->endpoint(); }
  const ContentCatalog& catalog() const { return catalog_; }
  std::uint64_t requests() const { return requests_; }

 private:
  void on_packet(const simnet::Packet& packet);
  /// The service event: answers the request in `slot` and frees it.
  void serve(std::uint32_t slot);

  netio::Runtime& rt_;
  std::string name_;
  ContentCatalog catalog_;
  simnet::LatencyModel service_time_;
  netio::DatagramSocket* socket_;
  util::Rng rng_;
  /// Requests in their service time, each with the event that answers it.
  util::SlotPool<InService> in_service_;
  std::uint64_t requests_ = 0;
};

/// Client-side fetch helper (used by the UE and by examples).
class ContentClient {
 public:
  using Callback = std::function<void(util::Result<ContentResponse>,
                                      simnet::SimTime latency)>;

  explicit ContentClient(netio::Runtime& runtime);
  ~ContentClient();
  ContentClient(const ContentClient&) = delete;
  ContentClient& operator=(const ContentClient&) = delete;

  void get(const simnet::Endpoint& server, const Url& url, Callback callback,
           simnet::SimTime timeout = simnet::SimTime::millis(3000));

 private:
  void on_packet(const simnet::Packet& packet);

  netio::Runtime& rt_;
  netio::DatagramSocket* socket_;
  struct Pending {
    Callback callback;
    simnet::SimTime sent;
    netio::TimerId timeout = netio::kNoTimer;
    obs::SpanRef span;          ///< "content get" span (inert if untraced)
    simnet::TraceToken caller;  ///< restored around the callback
  };
  struct U64Hash {
    std::size_t operator()(std::uint64_t v) const {
      v *= 0x9e3779b97f4a7c15ULL;
      return v ^ (v >> 32);
    }
  };
  util::FlatHashMap<std::uint64_t, Pending, U64Hash> pending_;
  std::uint64_t next_id_ = 1;
};

}  // namespace mecdns::cdn
