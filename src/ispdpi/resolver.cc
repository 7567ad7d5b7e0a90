#include "ispdpi/resolver.h"

#include "dns/dns.h"
#include "wire/udp.h"

namespace tspu::ispdpi {
namespace {

// Per-worker DNS transaction-ID counter. thread_local keeps shard workers
// from racing on it; reset_dns_query_ids() re-anchors it in the trial
// isolation path (topo::World::begin_trial) so the IDs a trial observes
// depend only on that trial, not on which shard ran it or what ran before —
// DNS IDs stay jobs-invariant. The resolver hosts themselves are reset there
// too, so their answers' IP IDs are per-trial as well.
thread_local std::uint16_t next_query_id = 1;

}  // namespace

void reset_dns_query_ids() { next_query_id = 1; }

void attach_blockpage_resolver(netsim::Host& host, ResolverConfig config) {
  host.udp_listen(
      dns::kDnsPort,
      [config = std::move(config)](netsim::Host& self, util::Ipv4Addr src,
                                   const wire::UdpDatagram& dgram) {
        auto query = dns::parse(dgram.payload);
        if (!query || query->is_response || query->questions.empty()) return;
        const std::string& name = query->questions.front().name;

        dns::Message response;
        if (config.blocklist && config.blocklist->contains(name)) {
          response = dns::make_response(*query, config.blockpage_ip);
        } else if (auto real = config.zone ? config.zone(name) : std::nullopt) {
          response = dns::make_response(*query, *real);
        } else {
          response = dns::make_nxdomain(*query);
        }
        self.send_udp(src, dns::kDnsPort, dgram.hdr.src_port,
                      dns::serialize(response));
      });
}

std::uint16_t send_dns_query(netsim::Host& client, util::Ipv4Addr resolver_ip,
                             const std::string& domain,
                             std::uint16_t src_port) {
  const std::uint16_t id = next_query_id;
  // 0 is a conventional "no transaction" sentinel; skip it on wrap.
  next_query_id = next_query_id == 0xffff ? 1 : next_query_id + 1;
  client.send_udp(resolver_ip, src_port, dns::kDnsPort,
                  dns::serialize(dns::make_query(id, domain)));
  return id;
}

std::optional<util::Ipv4Addr> read_dns_answer(const netsim::Host& client,
                                              std::uint16_t query_id) {
  for (const auto& cap : client.captured()) {
    if (cap.outbound || cap.pkt.ip.proto != wire::IpProto::kUdp) continue;
    // Zero-copy: the DNS decode reads straight from the captured packet's
    // bytes (cap.pkt outlives the parse).
    auto dgram = wire::parse_udp_view(cap.pkt);
    if (!dgram || dgram->hdr.src_port != dns::kDnsPort) continue;
    auto msg = dns::parse(dgram->payload);
    if (!msg || !msg->is_response || msg->id != query_id) continue;
    if (msg->answers.empty()) return std::nullopt;
    return msg->answers.front().address;
  }
  return std::nullopt;
}

}  // namespace tspu::ispdpi
