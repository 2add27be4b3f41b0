// RFC 1035 wire-format codec with §4.1.4 name compression.
//
// Every DNS message that crosses the simulated network is really encoded to
// and decoded from these bytes, so protocol-level details (compression
// pointers, OPT pseudo-records, truncation of malformed input) behave as
// they would on a real wire.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dns/message.h"
#include "util/result.h"

namespace mecdns::dns {

/// Encodes a message to wire bytes. Applies name compression to all owner
/// names and to names embedded in NS/CNAME/PTR/SOA RDATA (the RFC 1035
/// "well-known" types; SRV targets are left uncompressed per RFC 2782).
/// A message that does not fit the RFC 1035 §4.2.2 limit of 65535 octets
/// encodes to an empty vector.
std::vector<std::uint8_t> encode(const Message& message);

/// Like encode(), but returns a view into this thread's fixed encode
/// buffer, valid only until the next encode()/encode_view() on this thread
/// (empty when the message does not fit). Send paths that copy the bytes
/// onward anyway (a pooled sim packet buffer, a real sendto()) use this to
/// skip the copy into a vector.
std::span<const std::uint8_t> encode_view(const Message& message);

/// Decodes wire bytes. Fails (never throws, never reads out of bounds) on
/// truncated input, compression-pointer loops, or structural violations.
/// One pass over the datagram: names, questions and records are built in
/// their final slots, and the first OPT in additionals is lifted into
/// Message::edns without copying its RDATA (its options are parsed last,
/// so a later malformed record is the error reported).
util::Result<Message> decode(std::span<const std::uint8_t> wire);
/// decode() into an existing message (every field is overwritten), so a
/// receiver decodes straight into the slot that keeps the query. On
/// failure `out` holds a partial message.
util::Result<void> decode(std::span<const std::uint8_t> wire, Message& out);

/// What decode_header() parses: the header and the first question.
struct MessageHead {
  Header header;
  std::optional<Question> question;  ///< empty when QDCOUNT is 0
};

/// Parses only the header and the first question — all a passive tap
/// (ran::DnsTap, the P-GW "tcpdump") reads. Applies decode()'s bounds,
/// label and compression-pointer rules with the same error texts, so it
/// fails whenever decode() would fail within those bytes; faults in later
/// sections go unseen. Counts as one decoded message of wire.size() bytes
/// in util::perf, like decode().
util::Result<MessageHead> decode_header(std::span<const std::uint8_t> wire);

}  // namespace mecdns::dns
