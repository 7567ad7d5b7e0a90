// IPv4 header codec and the Packet type that flows through the simulator.
//
// A Packet is an IPv4 header plus the raw bytes of its L4 payload. Keeping
// the payload as bytes (rather than a parsed struct) is what makes IP
// fragmentation and DPI inspection honest: a fragment really is a byte slice
// of the datagram, and the TSPU model really parses TLS/QUIC from bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/bytes.h"
#include "util/ip.h"

namespace tspu::wire {

/// IANA protocol numbers used in this project.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

std::string proto_name(IpProto p);

struct Ipv4Header {
  util::Ipv4Addr src;
  util::Ipv4Addr dst;
  IpProto proto = IpProto::kTcp;
  std::uint8_t ttl = 64;
  std::uint16_t id = 0;          ///< identification, keys fragment queues
  std::uint16_t frag_offset = 0; ///< offset of this fragment in BYTES (multiple of 8)
  bool more_fragments = false;   ///< MF flag
  bool dont_fragment = false;    ///< DF flag
  std::uint8_t tos = 0;

  bool is_fragment() const { return more_fragments || frag_offset != 0; }
  /// First fragment of a fragmented datagram (or sole piece of an atomic one).
  bool is_first_fragment() const { return frag_offset == 0; }
};

/// One simulated IP packet: header + raw L4 payload bytes.
struct Packet {
  Ipv4Header ip;
  util::Bytes payload;

  std::size_t size() const { return 20 + payload.size(); }
};

/// Serializes header+payload into on-the-wire bytes with a valid header
/// checksum (IHL=5; options are not modeled).
util::Bytes serialize(const Packet& pkt);

/// Parses wire bytes back into a Packet. Returns nullopt on truncated input,
/// non-v4 version, bad IHL, or header checksum mismatch.
[[nodiscard]] std::optional<Packet> parse_ipv4(
    std::span<const std::uint8_t> wire);

/// One-line human dump, e.g. "10.1.0.2 > 93.184.0.9 TCP ttl=64 len=60".
std::string summary(const Packet& pkt);

}  // namespace tspu::wire
