#include "dns/edns.h"

namespace mecdns::dns {

namespace {
constexpr std::uint16_t kOptionClientSubnet = 8;  // RFC 7871
constexpr std::uint16_t kFamilyIpv4 = 1;
}  // namespace

void write_edns_options(util::ByteWriter& out, const Edns& edns) {
  if (edns.client_subnet.has_value()) {
    const ClientSubnet& ecs = *edns.client_subnet;
    // ADDRESS is truncated to the minimum octets covering SOURCE PREFIX,
    // with unused low bits zeroed (RFC 7871 §6).
    const std::size_t addr_octets = (ecs.source_prefix + 7) / 8;
    const std::uint32_t masked =
        ecs.source_prefix == 0
            ? 0
            : ecs.address.value() &
                  (~std::uint32_t{0} << (32 - ecs.source_prefix));
    out.u16(kOptionClientSubnet);
    out.u16(static_cast<std::uint16_t>(4 + addr_octets));
    out.u16(kFamilyIpv4);
    out.u8(ecs.source_prefix);
    out.u8(ecs.scope_prefix);
    for (std::size_t i = 0; i < addr_octets; ++i) {
      out.u8(static_cast<std::uint8_t>(masked >> (24 - 8 * i)));
    }
  }
}

util::Result<void> decode_edns_options(std::span<const std::uint8_t> rdata,
                                       Edns& edns) {
  util::ByteReader reader(rdata);
  while (!reader.at_end()) {
    auto code = reader.u16();
    if (!code.ok()) return code.error();
    auto length = reader.u16();
    if (!length.ok()) return length.error();
    auto body = reader.view(length.value());
    if (!body.ok()) return body.error();
    if (code.value() != kOptionClientSubnet) continue;  // skip unknown options

    util::ByteReader option(body.value());
    auto family = option.u16();
    if (!family.ok()) return family.error();
    auto source = option.u8();
    if (!source.ok()) return source.error();
    auto scope = option.u8();
    if (!scope.ok()) return scope.error();
    if (family.value() != kFamilyIpv4) {
      return util::Err("ECS: unsupported address family " +
                       std::to_string(family.value()));
    }
    if (source.value() > 32 || scope.value() > 32) {
      return util::Err("ECS: prefix length exceeds 32");
    }
    const std::size_t expected_octets = (source.value() + 7) / 8;
    if (option.remaining() != expected_octets) {
      return util::Err("ECS: address length mismatch");
    }
    std::uint32_t addr = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      std::uint8_t octet = 0;
      if (i < expected_octets) {
        auto b = option.u8();
        if (!b.ok()) return b.error();
        octet = b.value();
      }
      addr = (addr << 8) | octet;
    }
    ClientSubnet ecs;
    ecs.address = simnet::Ipv4Address(addr);
    ecs.source_prefix = source.value();
    ecs.scope_prefix = scope.value();
    edns.client_subnet = ecs;
  }
  return util::Ok();
}

}  // namespace mecdns::dns
