#include "cdn/content.h"

#include <charconv>
#include <stdexcept>

#include "util/strings.h"

namespace mecdns::cdn {

util::Result<Url> Url::parse(std::string_view text) {
  // Strip an optional scheme.
  if (const auto scheme = text.find("://"); scheme != std::string_view::npos) {
    text.remove_prefix(scheme + 3);
  }
  const std::size_t slash = text.find('/');
  const std::string_view host_text =
      slash == std::string_view::npos ? text : text.substr(0, slash);
  auto host = dns::DnsName::parse(host_text);
  if (!host.ok()) return host.error();
  Url url;
  url.host = std::move(host.value());
  url.path = slash == std::string_view::npos ? "/"
                                             : std::string(text.substr(slash));
  return url;
}

Url Url::must_parse(std::string_view text) {
  auto result = parse(text);
  if (!result.ok()) {
    throw std::invalid_argument("invalid URL '" + std::string(text) +
                                "': " + result.error().message);
  }
  return std::move(result).value();
}

void ContentCatalog::add(Url url, std::uint64_t size_bytes) {
  ContentObject object{url, size_bytes};
  const auto [it, inserted] = objects_.emplace(std::move(url), object);
  if (inserted) total_bytes_ += size_bytes;
}

void ContentCatalog::add_series(const dns::DnsName& host,
                                const std::string& prefix, std::size_t count,
                                std::uint64_t size_bytes) {
  for (std::size_t i = 0; i < count; ++i) {
    char buf[24];  // any size_t in decimal
    std::snprintf(buf, sizeof(buf), "%04zu", i);
    Url url;
    url.host = host;
    url.path = "/" + prefix + buf;
    add(std::move(url), size_bytes);
  }
}

std::optional<ContentObject> ContentCatalog::find(const Url& url) const {
  const auto it = objects_.find(url);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

// The protocol is a single text line; fields are space-separated and the
// URL is last so paths may not contain spaces (enforced by Url::parse via
// DnsName label rules and by construction in catalogs).
std::vector<std::uint8_t> encode(const ContentRequest& request) {
  const std::string line =
      "GET " + std::to_string(request.id) + " " + request.url.to_string();
  return {line.begin(), line.end()};
}

std::vector<std::uint8_t> encode(const ContentResponse& response) {
  const std::string line = "RSP " + std::to_string(response.id) + " " +
                           std::to_string(response.status) + " " +
                           std::to_string(response.size_bytes) + " " +
                           (response.served_from_cache ? "1" : "0") + " " +
                           response.url.to_string();
  return {line.begin(), line.end()};
}

namespace {
util::Result<std::uint64_t> parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return util::Err("bad integer: " + text);
  }
  return value;
}
}  // namespace

util::Result<ContentRequest> decode_request(
    const std::vector<std::uint8_t>& payload) {
  const std::string line(payload.begin(), payload.end());
  const auto parts = util::split(line, ' ');
  if (parts.size() != 3 || parts[0] != "GET") {
    return util::Err("malformed content request");
  }
  auto id = parse_u64(parts[1]);
  if (!id.ok()) return id.error();
  auto url = Url::parse(parts[2]);
  if (!url.ok()) return url.error();
  return ContentRequest{id.value(), std::move(url.value())};
}

util::Result<ContentResponse> decode_response(
    const std::vector<std::uint8_t>& payload) {
  const std::string line(payload.begin(), payload.end());
  const auto parts = util::split(line, ' ');
  if (parts.size() != 6 || parts[0] != "RSP") {
    return util::Err("malformed content response");
  }
  auto id = parse_u64(parts[1]);
  if (!id.ok()) return id.error();
  auto status = parse_u64(parts[2]);
  if (!status.ok()) return status.error();
  auto size = parse_u64(parts[3]);
  if (!size.ok()) return size.error();
  auto url = Url::parse(parts[5]);
  if (!url.ok()) return url.error();
  ContentResponse response;
  response.id = id.value();
  response.status = static_cast<std::uint16_t>(status.value());
  response.size_bytes = size.value();
  response.served_from_cache = parts[4] == "1";
  response.url = std::move(url.value());
  return response;
}

}  // namespace mecdns::cdn
