#include "cdn/cache_server.h"

#include "util/log.h"

namespace mecdns::cdn {

CacheServer::CacheServer(netio::Runtime& runtime, std::string name,
                         Config config, std::uint16_t port,
                         simnet::Ipv4Address addr)
    : rt_(runtime), name_(std::move(name)), config_(std::move(config)),
      rng_(0x8f1bbcdc ^ (runtime.rng_stream() << 21)) {
  socket_ = rt_.open_socket(
      port, [this](const simnet::Packet& packet) { on_packet(packet); }, addr);
  // Separate ephemeral socket for parent fetches so parent responses are
  // not confused with client requests.
  parent_socket_ = rt_.open_socket(
      0, [this](const simnet::Packet& packet) {
        auto response = decode_response(packet.payload);
        if (!response.ok()) return;
        const auto it = pending_.find(response.value().id);
        if (it == pending_.end()) return;
        PendingFetch fetch = std::move(it->second);
        pending_.erase(it);
        rt_.cancel(fetch.timeout);
        fetch.span.tag("status", std::to_string(response.value().status));
        fetch.span.end();
        // Answer the client under the serve span, not the fetch span.
        simnet::TraceTokenGuard context(fetch.owner);
        if (response.value().status == 200) {
          insert(ContentObject{fetch.request.url,
                               response.value().size_bytes});
          respond(fetch.request, fetch.client, 200,
                  response.value().size_bytes, /*from_cache=*/false);
        } else {
          ++stats_.not_found;
          respond(fetch.request, fetch.client, 404, 0, false);
        }
      });
}

CacheServer::~CacheServer() {
  in_service_.for_each([this](InService& work) { rt_.cancel(work.timer); });
  for (auto& [id, fetch] : pending_) rt_.cancel(fetch.timeout);
  rt_.close_socket(socket_);
  rt_.close_socket(parent_socket_);
}

void CacheServer::warm(const ContentObject& object) { insert(object); }

void CacheServer::wipe() {
  lru_.clear();
  index_.clear();
  used_bytes_ = 0;
}

void CacheServer::on_packet(const simnet::Packet& packet) {
  auto request = decode_request(packet.payload);
  if (!request.ok()) return;
  ++stats_.requests;
  // One span per request, named after this cache; serve() and its respond
  // run under it via the ambient token the scheduled event captures.
  obs::SpanRef span = obs::begin_span(name_, "get " + request.value().url.to_string());
  obs::AmbientSpanGuard ambient(span);
  const simnet::SimTime service = config_.service_time.sample(rng_);
  const std::uint32_t slot = in_service_.acquire();
  InService& work = in_service_[slot];
  work.request = std::move(request.value());
  work.client = packet.src;
  work.timer = rt_.schedule_after(service, [this, slot] {
    const InService& done = in_service_[slot];
    serve(done.request, done.client);
    in_service_.release(slot);
  });
}

void CacheServer::serve(const ContentRequest& request,
                        const simnet::Endpoint& client) {
  const auto it = index_.find(request.url);
  if (it != index_.end()) {
    ++stats_.hits;
    obs::ambient_span().tag("cache", "hit");
    MECDNS_LOG(kInfo, name_) << "hit for " << request.url.to_string();
    touch(request.url);
    respond(request, client, 200, it->second->size_bytes, true);
    return;
  }
  ++stats_.misses;
  obs::ambient_span().tag("cache", "miss");
  MECDNS_LOG(kInfo, name_) << "miss for " << request.url.to_string();
  if (!config_.parent.has_value()) {
    ++stats_.not_found;
    respond(request, client, 404, 0, false);
    return;
  }
  ++stats_.parent_fetches;
  const std::uint64_t fetch_id = next_fetch_id_++;
  PendingFetch pending{request, client, netio::kNoTimer,
                       obs::begin_span(name_, "parent-fetch"),
                       simnet::current_trace_token()};
  obs::AmbientSpanGuard ambient(pending.span);
  pending_.emplace(fetch_id, std::move(pending));
  ContentRequest upstream{fetch_id, request.url};
  parent_socket_->send(*config_.parent, encode(upstream));
  pending_.at(fetch_id).timeout =
      rt_.schedule_after(config_.parent_timeout, [this, fetch_id] {
        const auto pending_it = pending_.find(fetch_id);
        PendingFetch fetch = std::move(pending_it->second);
        pending_.erase(pending_it);
        ++stats_.parent_failures;
        MECDNS_LOG(kWarn, name_) << "parent fetch timed out for "
                                 << fetch.request.url.to_string();
        fetch.span.tag("outcome", "timeout");
        fetch.span.end();
        simnet::TraceTokenGuard context(fetch.owner);
        respond(fetch.request, fetch.client, 404, 0, false);
      });
}

void CacheServer::respond(const ContentRequest& request,
                          const simnet::Endpoint& client, std::uint16_t status,
                          std::uint64_t size, bool from_cache) {
  ContentResponse response;
  response.id = request.id;
  response.url = request.url;
  response.status = status;
  response.size_bytes = size;
  response.served_from_cache = from_cache;
  if (status == 200) stats_.bytes_served += size;
  socket_->send(client, encode(response));
  // The ambient span here is this request's serve span (restored by the
  // parent-fetch paths); close it once the reply is on the wire.
  obs::SpanRef span = obs::ambient_span();
  span.tag("status", std::to_string(status));
  span.end();
}

void CacheServer::touch(const Url& url) {
  const auto it = index_.find(url);
  if (it == index_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second);
  index_[url] = lru_.begin();
}

void CacheServer::insert(const ContentObject& object) {
  if (index_.count(object.url) != 0) {
    touch(object.url);
    return;
  }
  if (object.size_bytes > config_.capacity_bytes) return;  // uncacheable
  while (used_bytes_ + object.size_bytes > config_.capacity_bytes &&
         !lru_.empty()) {
    const ContentObject& victim = lru_.back();
    used_bytes_ -= victim.size_bytes;
    index_.erase(victim.url);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(object);
  index_[object.url] = lru_.begin();
  used_bytes_ += object.size_bytes;
}

OriginServer::OriginServer(netio::Runtime& runtime, std::string name,
                           ContentCatalog catalog,
                           simnet::LatencyModel service_time,
                           std::uint16_t port, simnet::Ipv4Address addr)
    : rt_(runtime), name_(std::move(name)), catalog_(std::move(catalog)),
      service_time_(service_time),
      rng_(0xca62c1d6 ^ (runtime.rng_stream() << 13)) {
  socket_ = rt_.open_socket(
      port, [this](const simnet::Packet& packet) { on_packet(packet); }, addr);
}

OriginServer::~OriginServer() {
  in_service_.for_each([this](InService& work) { rt_.cancel(work.timer); });
  rt_.close_socket(socket_);
}

void OriginServer::on_packet(const simnet::Packet& packet) {
  auto request = decode_request(packet.payload);
  if (!request.ok()) return;
  ++requests_;
  const simnet::SimTime service = service_time_.sample(rng_);
  const std::uint32_t slot = in_service_.acquire();
  InService& work = in_service_[slot];
  work.request = std::move(request.value());
  work.client = packet.src;
  work.timer = rt_.schedule_after(service, [this, slot] { serve(slot); });
}

void OriginServer::serve(std::uint32_t slot) {
  const InService& work = in_service_[slot];
  const auto object = catalog_.find(work.request.url);
  ContentResponse response;
  response.id = work.request.id;
  response.url = work.request.url;
  if (object.has_value()) {
    response.status = 200;
    response.size_bytes = object->size_bytes;
  } else {
    response.status = 404;
  }
  socket_->send(work.client, encode(response));
  in_service_.release(slot);
}

ContentClient::ContentClient(netio::Runtime& runtime) : rt_(runtime) {
  socket_ = rt_.open_socket(0, [this](const simnet::Packet& packet) {
    on_packet(packet);
  });
}

ContentClient::~ContentClient() {
  for (auto& [id, pending] : pending_) rt_.cancel(pending.timeout);
  rt_.close_socket(socket_);
}

void ContentClient::get(const simnet::Endpoint& server, const Url& url,
                        Callback callback, simnet::SimTime timeout) {
  const std::uint64_t id = next_id_++;
  Pending pending{std::move(callback), rt_.now(), netio::kNoTimer,
                  obs::begin_span("content", "get " + url.to_string()),
                  simnet::current_trace_token()};
  obs::AmbientSpanGuard ambient(pending.span);
  pending_.emplace(id, std::move(pending));
  socket_->send(server, encode(ContentRequest{id, url}));
  pending_.at(id).timeout = rt_.schedule_after(timeout, [this, id] {
    const auto it = pending_.find(id);
    Pending pending = std::move(it->second);
    pending_.erase(it);
    pending.span.tag("outcome", "timeout");
    pending.span.end();
    simnet::TraceTokenGuard context(pending.caller);
    pending.callback(util::Err("content fetch timed out"),
                     rt_.now() - pending.sent);
  });
}

void ContentClient::on_packet(const simnet::Packet& packet) {
  auto response = decode_response(packet.payload);
  if (!response.ok()) return;
  const auto it = pending_.find(response.value().id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  rt_.cancel(pending.timeout);
  pending.span.tag("status", std::to_string(response.value().status));
  pending.span.tag("from_cache",
                   response.value().served_from_cache ? "true" : "false");
  pending.span.end();
  simnet::TraceTokenGuard context(pending.caller);
  pending.callback(std::move(response), rt_.now() - pending.sent);
}

}  // namespace mecdns::cdn
