#include "dns/rr.h"

namespace mecdns::dns {

std::string to_string(RecordType type) {
  switch (type) {
    case RecordType::kA: return "A";
    case RecordType::kNs: return "NS";
    case RecordType::kCname: return "CNAME";
    case RecordType::kSoa: return "SOA";
    case RecordType::kPtr: return "PTR";
    case RecordType::kTxt: return "TXT";
    case RecordType::kAaaa: return "AAAA";
    case RecordType::kSrv: return "SRV";
    case RecordType::kOpt: return "OPT";
    case RecordType::kAny: return "ANY";
  }
  return "TYPE" + std::to_string(static_cast<std::uint16_t>(type));
}

std::string to_string(RecordClass cls) {
  switch (cls) {
    case RecordClass::kIn: return "IN";
    case RecordClass::kAny: return "ANY";
  }
  return "CLASS" + std::to_string(static_cast<std::uint16_t>(cls));
}

RecordType rdata_type(const RData& rdata) {
  struct Visitor {
    RecordType operator()(const ARecord&) const { return RecordType::kA; }
    RecordType operator()(const AaaaRecord&) const { return RecordType::kAaaa; }
    RecordType operator()(const NsRecord&) const { return RecordType::kNs; }
    RecordType operator()(const CnameRecord&) const { return RecordType::kCname; }
    RecordType operator()(const PtrRecord&) const { return RecordType::kPtr; }
    RecordType operator()(const SoaRecord&) const { return RecordType::kSoa; }
    RecordType operator()(const TxtRecord&) const { return RecordType::kTxt; }
    RecordType operator()(const SrvRecord&) const { return RecordType::kSrv; }
    RecordType operator()(const OptRecord&) const { return RecordType::kOpt; }
    RecordType operator()(const RawRecord& r) const {
      return static_cast<RecordType>(r.type);
    }
  };
  return std::visit(Visitor{}, rdata);
}

std::string ResourceRecord::to_string() const {
  std::string out = name.to_string() + " " + std::to_string(ttl) + " " +
                    dns::to_string(cls) + " " + dns::to_string(type);
  if (const auto* a = std::get_if<ARecord>(&rdata)) {
    out.append(" ").append(a->address.to_string());
  } else if (const auto* cname = std::get_if<CnameRecord>(&rdata)) {
    out.append(" ").append(cname->target.to_string());
  } else if (const auto* ns = std::get_if<NsRecord>(&rdata)) {
    out.append(" ").append(ns->nameserver.to_string());
  } else if (const auto* txt = std::get_if<TxtRecord>(&rdata)) {
    for (const auto& s : txt->strings) out += " \"" + s + "\"";
  }
  return out;
}

ResourceRecord make_a(const DnsName& name, simnet::Ipv4Address addr,
                      std::uint32_t ttl) {
  return ResourceRecord{name, RecordType::kA, RecordClass::kIn, ttl,
                        ARecord{addr}};
}

ResourceRecord make_cname(const DnsName& name, const DnsName& target,
                          std::uint32_t ttl) {
  return ResourceRecord{name, RecordType::kCname, RecordClass::kIn, ttl,
                        CnameRecord{target}};
}

ResourceRecord make_ns(const DnsName& name, const DnsName& nameserver,
                       std::uint32_t ttl) {
  return ResourceRecord{name, RecordType::kNs, RecordClass::kIn, ttl,
                        NsRecord{nameserver}};
}

ResourceRecord make_soa(const DnsName& name, const DnsName& mname,
                        std::uint32_t serial, std::uint32_t minimum,
                        std::uint32_t ttl) {
  SoaRecord soa;
  soa.mname = mname;
  soa.rname = DnsName::must_parse("hostmaster." + mname.to_string());
  soa.serial = serial;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = minimum;
  return ResourceRecord{name, RecordType::kSoa, RecordClass::kIn, ttl,
                        std::move(soa)};
}

ResourceRecord make_txt(const DnsName& name, std::vector<std::string> strings,
                        std::uint32_t ttl) {
  return ResourceRecord{name, RecordType::kTxt, RecordClass::kIn, ttl,
                        TxtRecord{std::move(strings)}};
}

ResourceRecord make_ptr(const DnsName& name, const DnsName& target,
                        std::uint32_t ttl) {
  return ResourceRecord{name, RecordType::kPtr, RecordClass::kIn, ttl,
                        PtrRecord{target}};
}

ResourceRecord make_srv(const DnsName& name, std::uint16_t priority,
                        std::uint16_t weight, std::uint16_t port,
                        const DnsName& target, std::uint32_t ttl) {
  return ResourceRecord{name, RecordType::kSrv, RecordClass::kIn, ttl,
                        SrvRecord{priority, weight, port, target}};
}

}  // namespace mecdns::dns
