#include "dns/wire.h"

#include <algorithm>
#include <string>

#include "dns/edns.h"
#include "util/arena.h"
#include "util/bytes.h"
#include "util/perfcount.h"
#include "util/small_vector.h"
#include "util/thread_fresh.h"

namespace mecdns::dns {

namespace {

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

/// QDCOUNT, ANCOUNT, NSCOUNT and ARCOUNT (RFC 1035 §4.1.1).
struct SectionCounts {
  std::uint16_t questions = 0;
  std::uint16_t answers = 0;
  std::uint16_t authorities = 0;
  std::uint16_t additionals = 0;
};

/// Reads the 12-octet header into `header` and returns its section counts
/// (shared by decode() and decode_header()).
util::Result<SectionCounts> read_header(util::ByteReader& reader,
                                        Header& header) {
  auto id = reader.u16();
  if (!id.ok()) return id.error();
  auto flags_result = reader.u16();
  if (!flags_result.ok()) return flags_result.error();
  const std::uint16_t flags = flags_result.value();

  header.id = id.value();
  header.qr = (flags & 0x8000) != 0;
  header.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  header.aa = (flags & 0x0400) != 0;
  header.tc = (flags & 0x0200) != 0;
  header.rd = (flags & 0x0100) != 0;
  header.ra = (flags & 0x0080) != 0;
  header.rcode = static_cast<RCode>(flags & 0xf);

  SectionCounts counts;
  for (std::uint16_t* count : {&counts.questions, &counts.answers,
                               &counts.authorities, &counts.additionals}) {
    auto v = reader.u16();
    if (!v.ok()) return v.error();
    *count = v.value();
  }
  return counts;
}

util::Result<void> read_question(util::ByteReader& reader, Question& q) {
  if (auto name = q.name.read_wire(reader); !name.ok()) return name;
  auto type = reader.u16();
  if (!type.ok()) return type.error();
  auto cls = reader.u16();
  if (!cls.ok()) return cls.error();
  q.type = static_cast<RecordType>(type.value());
  q.cls = static_cast<RecordClass>(cls.value());
  return util::Ok();
}

/// Reads a record's owner and fixed fields into `rr`, up to its RDATA.
/// Returns RDLENGTH, once the RDATA is known to lie inside the message.
util::Result<std::uint16_t> read_record_head(util::ByteReader& reader,
                                             ResourceRecord& rr) {
  if (auto name = rr.name.read_wire(reader); !name.ok()) return name.error();
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
  if (reader.remaining() < rdlength.value()) {
    return util::Err("RDATA past end of message");
  }
  return rdlength;
}

/// Reads `rdlength` octets of RDATA into `rr.rdata`, typed by `rr.type`.
/// Names in RDATA may run past RDLENGTH; that is caught at the end.
util::Result<void> read_rdata(util::ByteReader& reader, ResourceRecord& rr,
                              std::uint16_t rdlength) {
  const std::size_t rdata_end = reader.position() + rdlength;
  switch (rr.type) {
    case RecordType::kA: {
      if (rdlength != 4) return util::Err("A RDATA must be 4 octets");
      auto v = reader.u32();
      if (!v.ok()) return v.error();
      rr.rdata = ARecord{simnet::Ipv4Address(v.value())};
      break;
    }
    case RecordType::kAaaa: {
      if (rdlength != 16) return util::Err("AAAA RDATA must be 16 octets");
      auto bytes = reader.view(16);
      if (!bytes.ok()) return bytes.error();
      AaaaRecord& aaaa = rr.rdata.emplace<AaaaRecord>();
      std::copy(bytes.value().begin(), bytes.value().end(),
                aaaa.address.begin());
      break;
    }
    case RecordType::kNs: {
      auto name = rr.rdata.emplace<NsRecord>().nameserver.read_wire(reader);
      if (!name.ok()) return name;
      break;
    }
    case RecordType::kCname: {
      auto name = rr.rdata.emplace<CnameRecord>().target.read_wire(reader);
      if (!name.ok()) return name;
      break;
    }
    case RecordType::kPtr: {
      auto name = rr.rdata.emplace<PtrRecord>().target.read_wire(reader);
      if (!name.ok()) return name;
      break;
    }
    case RecordType::kSoa: {
      SoaRecord& soa = rr.rdata.emplace<SoaRecord>();
      if (auto name = soa.mname.read_wire(reader); !name.ok()) return name;
      if (auto name = soa.rname.read_wire(reader); !name.ok()) return name;
      for (std::uint32_t* field :
           {&soa.serial, &soa.refresh, &soa.retry, &soa.expire,
            &soa.minimum}) {
        auto v = reader.u32();
        if (!v.ok()) return v.error();
        *field = v.value();
      }
      break;
    }
    case RecordType::kTxt: {
      TxtRecord& txt = rr.rdata.emplace<TxtRecord>();
      while (reader.position() < rdata_end) {
        auto len = reader.u8();
        if (!len.ok()) return len.error();
        if (reader.position() + len.value() > rdata_end) {
          return util::Err("TXT string past RDATA");
        }
        auto s = reader.view(len.value());
        if (!s.ok()) return s.error();
        txt.strings.emplace_back(s.value().begin(), s.value().end());
      }
      break;
    }
    case RecordType::kSrv: {
      SrvRecord& srv = rr.rdata.emplace<SrvRecord>();
      for (std::uint16_t* field : {&srv.priority, &srv.weight, &srv.port}) {
        auto v = reader.u16();
        if (!v.ok()) return v.error();
        *field = v.value();
      }
      if (auto name = srv.target.read_wire(reader); !name.ok()) return name;
      break;
    }
    case RecordType::kOpt: {
      auto data = reader.view(rdlength);
      if (!data.ok()) return data.error();
      rr.rdata.emplace<OptRecord>().options.assign(data.value().begin(),
                                                    data.value().end());
      break;
    }
    default: {
      auto data = reader.view(rdlength);
      if (!data.ok()) return data.error();
      RawRecord& raw = rr.rdata.emplace<RawRecord>();
      raw.type = static_cast<std::uint16_t>(rr.type);
      raw.data.assign(data.value().begin(), data.value().end());
      break;
    }
  }
  if (reader.position() != rdata_end) {
    return util::Err("RDATA length mismatch for " + to_string(rr.type));
  }
  return util::Ok();
}

/// Reads `count` records straight into slots of `section`.
util::Result<void> read_section(util::ByteReader& reader, std::uint16_t count,
                                RecordList& section) {
  for (std::uint16_t i = 0; i < count; ++i) {
    ResourceRecord& rr = section.emplace_back();
    auto rdlength = read_record_head(reader, rr);
    if (!rdlength.ok()) return rdlength.error();
    if (auto r = read_rdata(reader, rr, rdlength.value()); !r.ok()) return r;
  }
  return util::Ok();
}

/// Counts one decoded message, whether decode() or decode_header() read it.
void count_decoded(std::span<const std::uint8_t> wire) {
  auto& perf = util::perf::counters();
  ++perf.dns_decoded;
  perf.dns_bytes_decoded += wire.size();
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
  count_decoded(wire);
  util::ByteReader reader(wire);
  Message msg;

  auto counts_result = read_header(reader, msg.header);
  if (!counts_result.ok()) return counts_result.error();
  const SectionCounts& counts = counts_result.value();

  for (std::uint16_t i = 0; i < counts.questions; ++i) {
    if (auto r = read_question(reader, msg.questions.emplace_back()); !r.ok()) {
      return r.error();
    }
  }
  if (auto r = read_section(reader, counts.answers, msg.answers); !r.ok()) {
    return r.error();
  }
  if (auto r = read_section(reader, counts.authorities, msg.authorities);
      !r.ok()) {
    return r.error();
  }

  // The first OPT pseudo-record in additionals is lifted into
  // Message::edns as it is read: its fixed fields fill Edns, and its RDATA
  // is only located, never copied. Any later OPT stays an ordinary record.
  std::span<const std::uint8_t> opt_rdata;
  for (std::uint16_t i = 0; i < counts.additionals; ++i) {
    ResourceRecord& rr = msg.additionals.emplace_back();
    auto rdlength = read_record_head(reader, rr);
    if (!rdlength.ok()) return rdlength.error();
    if (rr.type == RecordType::kOpt && !msg.edns.has_value()) {
      Edns& edns = msg.edns.emplace();
      edns.udp_payload_size = static_cast<std::uint16_t>(rr.cls);
      edns.extended_rcode = static_cast<std::uint8_t>(rr.ttl >> 24);
      edns.version = static_cast<std::uint8_t>(rr.ttl >> 16);
      edns.dnssec_ok = (rr.ttl & 0x8000) != 0;
      auto rdata = reader.view(rdlength.value());
      if (!rdata.ok()) return rdata.error();
      opt_rdata = rdata.value();
      msg.additionals.pop_back();
      continue;
    }
    if (auto r = read_rdata(reader, rr, rdlength.value()); !r.ok()) {
      return r.error();
    }
  }
  // Options are parsed only once every section is read, so a message with
  // a bad OPT and a bad later record reports the later record's fault.
  if (msg.edns.has_value()) {
    if (auto r = decode_edns_options(opt_rdata, *msg.edns); !r.ok()) {
      return r.error();
    }
  }
  return msg;
}

util::Result<MessageHead> decode_header(std::span<const std::uint8_t> wire) {
  count_decoded(wire);
  util::ByteReader reader(wire);
  MessageHead head;
  auto counts = read_header(reader, head.header);
  if (!counts.ok()) return counts.error();
  if (counts.value().questions > 0) {
    if (auto r = read_question(reader, head.question.emplace()); !r.ok()) {
      return r.error();
    }
  }
  return head;
}

}  // namespace mecdns::dns
