#include "wire/ipv4.h"

#include <utility>

#include "util/check.h"
#include "wire/checksum.h"

namespace tspu::wire {

std::string proto_name(IpProto p) {
  switch (p) {
    case IpProto::kIcmp:
      return "ICMP";
    case IpProto::kTcp:
      return "TCP";
    case IpProto::kUdp:
      return "UDP";
  }
  return "PROTO" + std::to_string(static_cast<int>(p));
}

util::Bytes serialize(const Packet& pkt) {
  const Ipv4Header& h = pkt.ip;
  // The total-length field is 16 bits: a payload past 65515 bytes would
  // silently truncate and desynchronize every downstream parser.
  TSPU_CHECK(pkt.payload.size() <= 65535 - 20,
             "payload too large for the IPv4 total-length field");
  util::ByteWriter w(20 + pkt.payload.size());
  w.u8(0x45);  // version 4, IHL 5
  w.u8(h.tos);
  w.u16(static_cast<std::uint16_t>(20 + pkt.payload.size()));
  w.u16(h.id);
  std::uint16_t flags_frag =
      static_cast<std::uint16_t>((h.dont_fragment ? 0x4000 : 0) |
                                 (h.more_fragments ? 0x2000 : 0) |
                                 ((h.frag_offset / 8) & 0x1fff));
  w.u16(flags_frag);
  w.u8(h.ttl);
  w.u8(static_cast<std::uint8_t>(h.proto));
  w.u16(0);  // checksum placeholder
  w.u32(h.src.value());
  w.u32(h.dst.value());
  w.patch_u16(10, checksum(std::span(w.bytes()).first(20)));
  w.raw(pkt.payload);
  return std::move(w).take();
}

std::optional<Packet> parse_ipv4(std::span<const std::uint8_t> wire) {
  if (wire.size() < 20) return std::nullopt;
  util::ByteReader r(wire);
  Packet pkt;
  Ipv4Header& h = pkt.ip;
  const std::uint8_t ver_ihl = r.u8();
  if ((ver_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = (ver_ihl & 0x0f) * 4u;
  if (ihl != 20) return std::nullopt;  // options unsupported
  if (checksum(wire.first(20)) != 0) return std::nullopt;

  h.tos = r.u8();
  const std::uint16_t total_len = r.u16();
  if (total_len < 20 || total_len > wire.size()) return std::nullopt;
  h.id = r.u16();
  const std::uint16_t flags_frag = r.u16();
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  h.more_fragments = (flags_frag & 0x2000) != 0;
  h.frag_offset = static_cast<std::uint16_t>((flags_frag & 0x1fff) * 8);
  h.ttl = r.u8();
  h.proto = static_cast<IpProto>(r.u8());
  r.skip(2);  // checksum, verified above
  h.src = util::Ipv4Addr(r.u32());
  h.dst = util::Ipv4Addr(r.u32());
  auto body = r.raw(total_len - 20);
  pkt.payload.assign(body.begin(), body.end());
  return pkt;
}

std::string summary(const Packet& pkt) {
  std::string out = pkt.ip.src.str() + " > " + pkt.ip.dst.str() + " " +
                    proto_name(pkt.ip.proto) +
                    " ttl=" + std::to_string(pkt.ip.ttl) +
                    " len=" + std::to_string(pkt.size());
  if (pkt.ip.is_fragment()) {
    out += " frag(id=" + std::to_string(pkt.ip.id) +
           " off=" + std::to_string(pkt.ip.frag_offset) +
           (pkt.ip.more_fragments ? " MF" : "") + ")";
  }
  return out;
}

}  // namespace tspu::wire
