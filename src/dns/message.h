// DNS message structure (RFC 1035 §4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dns/edns.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "util/small_vector.h"

namespace mecdns::dns {

enum class Opcode : std::uint8_t {
  kQuery = 0,
  kStatus = 2,
  kNotify = 4,
  kUpdate = 5,
};

enum class RCode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

std::string to_string(RCode rcode);

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  ///< false = query, true = response
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncated
  bool rd = false;  ///< recursion desired
  bool ra = false;  ///< recursion available
  RCode rcode = RCode::kNoError;

  friend bool operator==(const Header&, const Header&) = default;
};

struct Question {
  DnsName name;
  RecordType type = RecordType::kA;
  RecordClass cls = RecordClass::kIn;

  friend bool operator==(const Question&, const Question&) = default;
  std::string to_string() const;
};

/// Message sections hold their first record inline (typical messages carry
/// 1-3 records; the single-record case is by far the most common), spilling
/// to the heap only for larger messages.
using QuestionList = util::SmallVector<Question, 1>;
using RecordList = util::SmallVector<ResourceRecord, 1>;

struct Message {
  Header header;
  QuestionList questions;
  RecordList answers;
  RecordList authorities;
  RecordList additionals;
  /// Parsed EDNS(0) state (from/for the OPT pseudo-record). When set, the
  /// codec emits an OPT record in additionals; on decode the OPT record is
  /// lifted out of additionals into this field.
  std::optional<Edns> edns;

  /// First question, or a default Question if none (callers that require a
  /// question should check questions.empty() themselves).
  const Question& question() const;

  /// First A-record address in the answer section, if any.
  std::optional<simnet::Ipv4Address> first_a() const;

  std::string to_string() const;
};

/// Builds a recursive-desired query for (name, type) with the given id.
Message make_query(std::uint16_t id, const DnsName& name, RecordType type,
                   bool recursion_desired = true);

/// What a server reads of a query: the header, the first question and the
/// EDNS state. A decoded query's other records never reach a handler, and a
/// deferred answer keeps this and nothing else of its query.
struct Query {
  Header header;
  Question question;
  std::optional<Edns> edns;
};

/// The Query of a decoded message (its first question, or a default
/// Question if none).
Query to_query(const Message& message);

/// Builds a response skeleton echoing the query's id, flags and question.
/// A query with EDNS gets an OPT record back (RFC 6891 §6.1.1) whose client
/// subnet, if the query had one, is at scope 0: valid for every client
/// (RFC 7871 §7.2.1) unless the responder narrows it.
Message make_response(const Query& query, RCode rcode = RCode::kNoError);

}  // namespace mecdns::dns
