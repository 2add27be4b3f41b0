#include "dns/wire.h"

#include <string>

#include "dns/edns.h"
#include "util/arena.h"
#include "util/bytes.h"
#include "util/perfcount.h"
#include "util/small_vector.h"
#include "util/thread_fresh.h"

namespace mecdns::dns {

namespace {

constexpr std::uint8_t kPointerTag = 0xc0;
constexpr std::size_t kMaxPointerChases = 32;

/// Tracks previously written names so later occurrences can point at them
/// (RFC 1035 §4.1.4).
///
/// Instead of a std::map keyed by lowercased dotted-suffix strings (one
/// string build + tree walk per label), this records the byte offset of
/// every label start it writes and, on lookup, compares the candidate
/// suffix against the name already in the output buffer at each recorded
/// offset — chasing compression pointers, case-insensitively. Offsets are
/// scanned in recording order, so the earliest occurrence of a suffix wins,
/// exactly as std::map::emplace kept the first insertion.
class NameCompressor {
 public:
  void write_name(util::ByteWriter& out, const DnsName& name) {
    const std::string_view wire = name.wire_labels();
    std::size_t at = 0;
    while (at < wire.size()) {
      const std::size_t found = find_suffix(out, wire.substr(at));
      if (found != kNotFound) {
        out.u16(static_cast<std::uint16_t>(0xc000 | found));
        return;
      }
      if (out.size() < 0x3fff) {
        offsets_.push_back(static_cast<std::uint16_t>(out.size()));
      }
      const std::size_t len = static_cast<unsigned char>(wire[at]);
      out.bytes(wire.substr(at, 1 + len));
      at += 1 + len;
    }
    out.u8(0);  // root
  }

 private:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  /// Earliest recorded offset whose in-buffer name equals `want` (a run of
  /// length-prefixed labels without the terminating root byte).
  std::size_t find_suffix(const util::ByteWriter& out,
                          std::string_view want) const {
    for (const std::uint16_t offset : offsets_) {
      if (matches_at(out, offset, want)) return offset;
    }
    return kNotFound;
  }

  static bool matches_at(const util::ByteWriter& out, std::size_t pos,
                         std::string_view want) {
    const std::uint8_t* buf = out.raw();
    const std::size_t size = out.size();
    std::size_t w = 0;
    std::size_t chases = 0;
    while (true) {
      if (pos >= size) return false;
      const std::uint8_t len = buf[pos];
      if ((len & kPointerTag) == kPointerTag) {
        if (++chases > kMaxPointerChases || pos + 1 >= size) return false;
        pos = (static_cast<std::size_t>(len & 0x3f) << 8) | buf[pos + 1];
        continue;
      }
      if (w == want.size()) return len == 0;
      if (len != static_cast<std::uint8_t>(want[w])) return false;
      if (pos + 1 + len > size) return false;
      for (std::size_t k = 0; k < len; ++k) {
        if (ascii_fold(static_cast<char>(buf[pos + 1 + k])) !=
            ascii_fold(want[w + 1 + k])) {
          return false;
        }
      }
      pos += 1 + len;
      w += 1 + len;
    }
  }

  util::SmallVector<std::uint16_t, 32> offsets_;
};

void write_uncompressed_name(util::ByteWriter& out, const DnsName& name) {
  out.bytes(name.wire_labels());
  out.u8(0);
}

void write_record(util::ByteWriter& out, NameCompressor& names,
                  const ResourceRecord& rr) {
  names.write_name(out, rr.name);
  out.u16(static_cast<std::uint16_t>(rr.type));
  out.u16(static_cast<std::uint16_t>(rr.cls));
  out.u32(rr.ttl);
  const std::size_t rdlength_at = out.size();
  out.u16(0);  // patched below
  const std::size_t rdata_start = out.size();

  struct RDataWriter {
    util::ByteWriter& out;
    NameCompressor& names;

    void operator()(const ARecord& a) { out.u32(a.address.value()); }
    void operator()(const AaaaRecord& a) {
      for (const std::uint8_t b : a.address) out.u8(b);
    }
    void operator()(const NsRecord& ns) { names.write_name(out, ns.nameserver); }
    void operator()(const CnameRecord& c) { names.write_name(out, c.target); }
    void operator()(const PtrRecord& p) { names.write_name(out, p.target); }
    void operator()(const SoaRecord& soa) {
      names.write_name(out, soa.mname);
      names.write_name(out, soa.rname);
      out.u32(soa.serial);
      out.u32(soa.refresh);
      out.u32(soa.retry);
      out.u32(soa.expire);
      out.u32(soa.minimum);
    }
    void operator()(const TxtRecord& txt) {
      for (const auto& s : txt.strings) {
        const std::size_t n = std::min<std::size_t>(s.size(), 255);
        out.u8(static_cast<std::uint8_t>(n));
        out.bytes(std::string_view(s).substr(0, n));
      }
    }
    void operator()(const SrvRecord& srv) {
      out.u16(srv.priority);
      out.u16(srv.weight);
      out.u16(srv.port);
      write_uncompressed_name(out, srv.target);  // RFC 2782: no compression
    }
    void operator()(const OptRecord& opt) {
      out.bytes(std::span<const std::uint8_t>(opt.options));
    }
    void operator()(const RawRecord& raw) {
      out.bytes(std::span<const std::uint8_t>(raw.data));
    }
  };
  std::visit(RDataWriter{out, names}, rr.rdata);
  out.patch_u16(rdlength_at,
                static_cast<std::uint16_t>(out.size() - rdata_start));
}

/// Materializes the OPT pseudo-record described by Edns (RFC 6891 §6.1.2):
/// owner = root, CLASS = requestor's UDP payload size, TTL = extended
/// rcode/version/DO flags.
ResourceRecord make_opt_record(const Edns& edns) {
  ResourceRecord rr;
  rr.name = DnsName::root();
  rr.type = RecordType::kOpt;
  rr.cls = static_cast<RecordClass>(edns.udp_payload_size);
  rr.ttl = (static_cast<std::uint32_t>(edns.extended_rcode) << 24) |
           (static_cast<std::uint32_t>(edns.version) << 16) |
           (edns.dnssec_ok ? 0x8000u : 0u);
  rr.rdata = OptRecord{encode_edns_options(edns)};
  return rr;
}

util::Result<DnsName> read_name(util::ByteReader& reader) {
  DnsName name;
  std::size_t chases = 0;
  bool jumped = false;
  std::size_t resume_at = 0;

  while (true) {
    auto len_result = reader.u8();
    if (!len_result.ok()) return len_result.error();
    const std::uint8_t len = len_result.value();

    if ((len & kPointerTag) == kPointerTag) {
      auto low = reader.u8();
      if (!low.ok()) return low.error();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | low.value();
      if (!jumped) {
        resume_at = reader.position();
        jumped = true;
      }
      if (++chases > kMaxPointerChases) {
        return util::Err("compression pointer loop");
      }
      if (target >= reader.size()) {
        return util::Err("compression pointer past end");
      }
      auto seek = reader.seek(target);
      if (!seek.ok()) return seek.error();
      continue;
    }
    if ((len & kPointerTag) != 0) {
      return util::Err("reserved label type");
    }
    if (len == 0) break;
    auto label = reader.view(len);
    if (!label.ok()) return label.error();
    auto appended = name.append_label(label.value());
    if (!appended.ok()) return appended.error();
    if (name.label_count() > 127) return util::Err("too many labels");
  }

  if (jumped) {
    auto seek = reader.seek(resume_at);
    if (!seek.ok()) return seek.error();
  }
  return name;
}

util::Result<ResourceRecord> read_record(util::ByteReader& reader) {
  ResourceRecord rr;
  auto name = read_name(reader);
  if (!name.ok()) return name.error();
  rr.name = std::move(name.value());

  auto type = reader.u16();
  if (!type.ok()) return type.error();
  auto cls = reader.u16();
  if (!cls.ok()) return cls.error();
  auto ttl = reader.u32();
  if (!ttl.ok()) return ttl.error();
  auto rdlength = reader.u16();
  if (!rdlength.ok()) return rdlength.error();

  rr.type = static_cast<RecordType>(type.value());
  rr.cls = static_cast<RecordClass>(cls.value());
  rr.ttl = ttl.value();
  const std::size_t rdata_end = reader.position() + rdlength.value();
  if (rdata_end > reader.size()) return util::Err("RDATA past end of message");

  switch (rr.type) {
    case RecordType::kA: {
      if (rdlength.value() != 4) return util::Err("A RDATA must be 4 octets");
      auto v = reader.u32();
      if (!v.ok()) return v.error();
      rr.rdata = ARecord{simnet::Ipv4Address(v.value())};
      break;
    }
    case RecordType::kAaaa: {
      if (rdlength.value() != 16) {
        return util::Err("AAAA RDATA must be 16 octets");
      }
      AaaaRecord rec;
      for (auto& b : rec.address) {
        auto v = reader.u8();
        if (!v.ok()) return v.error();
        b = v.value();
      }
      rr.rdata = rec;
      break;
    }
    case RecordType::kNs: {
      auto target = read_name(reader);
      if (!target.ok()) return target.error();
      rr.rdata = NsRecord{std::move(target.value())};
      break;
    }
    case RecordType::kCname: {
      auto target = read_name(reader);
      if (!target.ok()) return target.error();
      rr.rdata = CnameRecord{std::move(target.value())};
      break;
    }
    case RecordType::kPtr: {
      auto target = read_name(reader);
      if (!target.ok()) return target.error();
      rr.rdata = PtrRecord{std::move(target.value())};
      break;
    }
    case RecordType::kSoa: {
      SoaRecord soa;
      auto mname = read_name(reader);
      if (!mname.ok()) return mname.error();
      soa.mname = std::move(mname.value());
      auto rname = read_name(reader);
      if (!rname.ok()) return rname.error();
      soa.rname = std::move(rname.value());
      auto serial = reader.u32();
      if (!serial.ok()) return serial.error();
      auto refresh = reader.u32();
      if (!refresh.ok()) return refresh.error();
      auto retry = reader.u32();
      if (!retry.ok()) return retry.error();
      auto expire = reader.u32();
      if (!expire.ok()) return expire.error();
      auto minimum = reader.u32();
      if (!minimum.ok()) return minimum.error();
      soa.serial = serial.value();
      soa.refresh = refresh.value();
      soa.retry = retry.value();
      soa.expire = expire.value();
      soa.minimum = minimum.value();
      rr.rdata = std::move(soa);
      break;
    }
    case RecordType::kTxt: {
      TxtRecord txt;
      while (reader.position() < rdata_end) {
        auto len = reader.u8();
        if (!len.ok()) return len.error();
        if (reader.position() + len.value() > rdata_end) {
          return util::Err("TXT string past RDATA");
        }
        auto s = reader.str(len.value());
        if (!s.ok()) return s.error();
        txt.strings.push_back(std::move(s.value()));
      }
      rr.rdata = std::move(txt);
      break;
    }
    case RecordType::kSrv: {
      SrvRecord srv;
      auto priority = reader.u16();
      if (!priority.ok()) return priority.error();
      auto weight = reader.u16();
      if (!weight.ok()) return weight.error();
      auto port = reader.u16();
      if (!port.ok()) return port.error();
      auto target = read_name(reader);
      if (!target.ok()) return target.error();
      srv.priority = priority.value();
      srv.weight = weight.value();
      srv.port = port.value();
      srv.target = std::move(target.value());
      rr.rdata = std::move(srv);
      break;
    }
    case RecordType::kOpt: {
      auto data = reader.bytes(rdlength.value());
      if (!data.ok()) return data.error();
      rr.rdata = OptRecord{std::move(data.value())};
      break;
    }
    default: {
      auto data = reader.bytes(rdlength.value());
      if (!data.ok()) return data.error();
      rr.rdata = RawRecord{type.value(), std::move(data.value())};
      break;
    }
  }
  if (reader.position() != rdata_end) {
    return util::Err("RDATA length mismatch for " + to_string(rr.type));
  }
  return rr;
}

/// Per-thread scratch for encode temporaries: reset (not freed) per message,
/// so the steady state allocates only the final wire vector. Registered with
/// the thread-fresh registry so the campaign runner can return it to a cold
/// state before each job — otherwise a job landing on a warm worker thread
/// would see different refill/allocation counts than the same job on a
/// fresh thread, breaking worker-count byte-identity.
util::Arena& encode_arena() {
  thread_local struct Holder {
    util::Arena arena{2048};
    Holder() {
      util::register_thread_cache(
          [](void* ctx) { static_cast<util::Arena*>(ctx)->release(); },
          &arena);
    }
  } holder;
  return holder.arena;
}

}  // namespace

namespace {
/// Shared encode body: leaves the wire bytes in the thread-local arena and
/// returns the writer (whose data() views them).
util::ByteWriter encode_to_arena(const Message& message) {
  util::Arena& arena = encode_arena();
  arena.reset();
  util::ByteWriter out(&arena);
  NameCompressor names;

  std::uint16_t flags = 0;
  const Header& h = message.header;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(h.opcode) & 0xf)
           << 11;
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(h.rcode) & 0xf);

  const std::size_t arcount =
      message.additionals.size() + (message.edns.has_value() ? 1 : 0);

  out.u16(h.id);
  out.u16(flags);
  out.u16(static_cast<std::uint16_t>(message.questions.size()));
  out.u16(static_cast<std::uint16_t>(message.answers.size()));
  out.u16(static_cast<std::uint16_t>(message.authorities.size()));
  out.u16(static_cast<std::uint16_t>(arcount));

  for (const auto& q : message.questions) {
    names.write_name(out, q.name);
    out.u16(static_cast<std::uint16_t>(q.type));
    out.u16(static_cast<std::uint16_t>(q.cls));
  }
  for (const auto& rr : message.answers) write_record(out, names, rr);
  for (const auto& rr : message.authorities) write_record(out, names, rr);
  for (const auto& rr : message.additionals) write_record(out, names, rr);
  // The OPT pseudo-record rides last in additionals, written directly from
  // Message::edns — no section copy just to append it.
  if (message.edns.has_value()) {
    write_record(out, names, make_opt_record(*message.edns));
  }
  auto& perf = util::perf::counters();
  ++perf.dns_encoded;
  perf.dns_bytes_encoded += out.size();
  return out;
}
}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  return encode_to_arena(message).take();
}

std::span<const std::uint8_t> encode_view(const Message& message) {
  // The writer's bytes live in the thread-local arena, which outlives the
  // writer object itself — the view stays valid until the next encode.
  return encode_to_arena(message).data();
}

util::Result<Message> decode(std::span<const std::uint8_t> wire) {
  auto& perf = util::perf::counters();
  ++perf.dns_decoded;
  perf.dns_bytes_decoded += wire.size();
  util::ByteReader reader(wire);
  Message msg;

  auto id = reader.u16();
  if (!id.ok()) return id.error();
  auto flags_result = reader.u16();
  if (!flags_result.ok()) return flags_result.error();
  const std::uint16_t flags = flags_result.value();

  msg.header.id = id.value();
  msg.header.qr = (flags & 0x8000) != 0;
  msg.header.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  msg.header.aa = (flags & 0x0400) != 0;
  msg.header.tc = (flags & 0x0200) != 0;
  msg.header.rd = (flags & 0x0100) != 0;
  msg.header.ra = (flags & 0x0080) != 0;
  msg.header.rcode = static_cast<RCode>(flags & 0xf);

  auto qdcount = reader.u16();
  if (!qdcount.ok()) return qdcount.error();
  auto ancount = reader.u16();
  if (!ancount.ok()) return ancount.error();
  auto nscount = reader.u16();
  if (!nscount.ok()) return nscount.error();
  auto arcount = reader.u16();
  if (!arcount.ok()) return arcount.error();

  for (std::uint16_t i = 0; i < qdcount.value(); ++i) {
    Question q;
    auto name = read_name(reader);
    if (!name.ok()) return name.error();
    q.name = std::move(name.value());
    auto type = reader.u16();
    if (!type.ok()) return type.error();
    auto cls = reader.u16();
    if (!cls.ok()) return cls.error();
    q.type = static_cast<RecordType>(type.value());
    q.cls = static_cast<RecordClass>(cls.value());
    msg.questions.push_back(std::move(q));
  }

  const auto read_section = [&](std::uint16_t count,
                                RecordList& section) -> util::Result<void> {
    for (std::uint16_t i = 0; i < count; ++i) {
      auto rr = read_record(reader);
      if (!rr.ok()) return rr.error();
      section.push_back(std::move(rr.value()));
    }
    return util::Ok();
  };

  if (auto r = read_section(ancount.value(), msg.answers); !r.ok()) {
    return r.error();
  }
  if (auto r = read_section(nscount.value(), msg.authorities); !r.ok()) {
    return r.error();
  }
  if (auto r = read_section(arcount.value(), msg.additionals); !r.ok()) {
    return r.error();
  }

  // Lift the OPT pseudo-record (if any) into Message::edns.
  for (auto it = msg.additionals.begin(); it != msg.additionals.end(); ++it) {
    if (it->type != RecordType::kOpt) continue;
    Edns edns;
    edns.udp_payload_size = static_cast<std::uint16_t>(it->cls);
    edns.extended_rcode = static_cast<std::uint8_t>(it->ttl >> 24);
    edns.version = static_cast<std::uint8_t>(it->ttl >> 16);
    edns.dnssec_ok = (it->ttl & 0x8000) != 0;
    if (const auto* opt = std::get_if<OptRecord>(&it->rdata)) {
      auto decoded = decode_edns_options(opt->options, edns);
      if (!decoded.ok()) return decoded.error();
    }
    msg.edns = edns;
    msg.additionals.erase(it);
    break;
  }
  return msg;
}

}  // namespace mecdns::dns
