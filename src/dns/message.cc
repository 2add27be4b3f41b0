#include "dns/message.h"

#include <sstream>

namespace mecdns::dns {

std::string to_string(RCode rcode) {
  switch (rcode) {
    case RCode::kNoError: return "NOERROR";
    case RCode::kFormErr: return "FORMERR";
    case RCode::kServFail: return "SERVFAIL";
    case RCode::kNxDomain: return "NXDOMAIN";
    case RCode::kNotImp: return "NOTIMP";
    case RCode::kRefused: return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<int>(rcode));
}

std::string Question::to_string() const {
  return name.to_string() + " " + dns::to_string(cls) + " " +
         dns::to_string(type);
}

const Question& Message::question() const {
  static const Question kEmpty{};
  return questions.empty() ? kEmpty : questions.front();
}

std::optional<simnet::Ipv4Address> Message::first_a() const {
  for (const auto& rr : answers) {
    if (const auto* a = std::get_if<ARecord>(&rr.rdata)) {
      return a->address;
    }
  }
  return std::nullopt;
}

std::string Message::to_string() const {
  std::ostringstream out;
  out << (header.qr ? "response" : "query") << " id=" << header.id
      << " rcode=" << dns::to_string(header.rcode)
      << (header.aa ? " aa" : "") << (header.rd ? " rd" : "")
      << (header.ra ? " ra" : "");
  for (const auto& q : questions) out << "\n  ?" << q.to_string();
  for (const auto& rr : answers) out << "\n  >" << rr.to_string();
  for (const auto& rr : authorities) out << "\n  ^" << rr.to_string();
  for (const auto& rr : additionals) out << "\n  +" << rr.to_string();
  if (edns.has_value() && edns->client_subnet.has_value()) {
    out << "\n  ecs=" << edns->client_subnet->subnet().to_string() << "/"
        << static_cast<int>(edns->client_subnet->scope_prefix);
  }
  return out.str();
}

Message make_query(std::uint16_t id, const DnsName& name, RecordType type,
                   bool recursion_desired) {
  Message msg;
  msg.header.id = id;
  msg.header.qr = false;
  msg.header.rd = recursion_desired;
  msg.questions.push_back(Question{name, type, RecordClass::kIn});
  return msg;
}

Query to_query(const Message& message) {
  return Query{message.header, message.question(), message.edns};
}

Message make_response(const Query& query, RCode rcode) {
  Message msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.opcode = query.header.opcode;
  msg.header.rd = query.header.rd;
  msg.header.rcode = rcode;
  msg.questions.push_back(query.question);
  if (query.edns.has_value()) {
    msg.edns = Edns{};
    if (query.edns->client_subnet.has_value()) {
      msg.edns->client_subnet = query.edns->client_subnet;
      msg.edns->client_subnet->scope_prefix = 0;
    }
  }
  return msg;
}

}  // namespace mecdns::dns
