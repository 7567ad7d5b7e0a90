#include "measure/common.h"

#include "wire/icmp.h"

namespace tspu::measure {

std::vector<SeenSegment> inbound_tcp(const netsim::Host& host,
                                     util::Ipv4Addr peer,
                                     std::uint16_t peer_port,
                                     std::uint16_t local_port,
                                     std::size_t from) {
  std::vector<SeenSegment> out;
  const auto& caps = host.captured();
  for (std::size_t i = from; i < caps.size(); ++i) {
    const auto& cap = caps[i];
    if (cap.outbound || cap.pkt.ip.proto != wire::IpProto::kTcp) continue;
    if (cap.pkt.ip.src != peer || cap.pkt.ip.is_fragment()) continue;
    // Middlebox-rewritten packets still carry valid checksums in this model;
    // skip verification to keep scans cheap.
    auto seg = wire::parse_tcp(cap.pkt, /*verify_checksum=*/false);
    if (!seg) continue;
    if (seg->hdr.src_port != peer_port || seg->hdr.dst_port != local_port)
      continue;
    out.push_back({cap.time, cap.pkt.ip, seg->hdr, seg->payload.size(),
                   seg->payload});
  }
  return out;
}

int inbound_udp_count(const netsim::Host& host, util::Ipv4Addr peer,
                      std::uint16_t peer_port, std::uint16_t local_port,
                      std::size_t from) {
  int count = 0;
  const auto& caps = host.captured();
  for (std::size_t i = from; i < caps.size(); ++i) {
    const auto& cap = caps[i];
    if (cap.outbound || cap.pkt.ip.proto != wire::IpProto::kUdp) continue;
    if (cap.pkt.ip.src != peer || cap.pkt.ip.is_fragment()) continue;
    auto d = wire::parse_udp(cap.pkt, /*verify_checksum=*/false);
    if (!d) continue;
    if (d->hdr.src_port == peer_port && d->hdr.dst_port == local_port) ++count;
  }
  return count;
}

std::optional<util::Ipv4Addr> time_exceeded_from(const netsim::Host& host,
                                                 std::uint16_t probe_ipid,
                                                 std::size_t from) {
  const auto& caps = host.captured();
  for (std::size_t i = from; i < caps.size(); ++i) {
    const auto& cap = caps[i];
    if (cap.outbound || cap.pkt.ip.proto != wire::IpProto::kIcmp) continue;
    auto msg = wire::parse_icmp(cap.pkt);
    if (!msg || msg->type != wire::IcmpType::kTimeExceeded) continue;
    // The embedded original starts with the expired packet's IP header;
    // its IPID sits at bytes 4-5.
    if (msg->embedded.size() < 6) continue;
    const std::uint16_t id =
        static_cast<std::uint16_t>(msg->embedded[4] << 8 | msg->embedded[5]);
    if (id == probe_ipid) return cap.pkt.ip.src;
  }
  return std::nullopt;
}

bool saw_rst_ack(const std::vector<SeenSegment>& segments) {
  for (const SeenSegment& s : segments) {
    if (s.tcp.flags.is_rst_ack() && s.payload_size == 0) return true;
  }
  return false;
}

int data_segment_count(const std::vector<SeenSegment>& segments) {
  int count = 0;
  for (const SeenSegment& s : segments) {
    if (s.payload_size > 0) ++count;
  }
  return count;
}

}  // namespace tspu::measure
