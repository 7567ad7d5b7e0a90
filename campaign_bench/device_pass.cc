// Standalone per-packet device cost for the traced run: the workload's own
// packet shapes pushed straight into core::Device::process, the
// bench/device_microbench method. Two routers with empty routing tables
// bracket the device, so whatever it forwards dies at the neighbour in
// O(route-miss) and the timed loop measures the device, not transport.
// Packets are copied from templates off the clock and moved in, as a
// simulated hop hands the device a moved packet.
#include <algorithm>
#include <memory>

#include "netsim/network.h"
#include "netsim/router.h"
#include "layers.h"
#include "tls/clienthello.h"
#include "tspu/device.h"
#include "wire/fragment.h"
#include "wire/tcp.h"

namespace tspu::campaign_bench {
namespace {

using util::Ipv4Addr;

constexpr std::uint16_t kPortBase = 20000;
/// Fresh flows (source ports / IP IDs) per cycle; a quiesce between cycles
/// expires every conntrack entry and fragment queue.
constexpr int kFlowsPerCycle = 2048;
/// Flows whose packets are refilled and then timed together.
constexpr int kFlowsPerBatch = 16;

struct DevicePath {
  netsim::Network net;
  core::Device* device = nullptr;

  explicit DevicePath(const core::PolicyPtr& policy) {
    const auto r1 =
        net.add(std::make_unique<netsim::Router>("r1", Ipv4Addr(5, 1, 0, 1)));
    const auto r2 =
        net.add(std::make_unique<netsim::Router>("r2", Ipv4Addr(9, 1, 0, 1)));
    net.link(r1, r2);
    auto dev = std::make_unique<core::Device>("d", policy);
    device = dev.get();
    net.insert_inline(r1, r2, std::move(dev));
  }

  /// Pushes each flow's packets upstream through the device, cycling over
  /// `flows` until `seconds` of device time have been measured. Returns
  /// the median ns per packet over cycles.
  double measure(const std::vector<std::vector<wire::Packet>>& flows,
                 double seconds) {
    std::vector<double> ns_per_packet;
    std::vector<wire::Packet> batch;
    double total = 0;
    while (total < seconds || ns_per_packet.size() < 3) {
      double timed = 0;
      std::size_t packets = 0;
      for (std::size_t f = 0; f < flows.size(); f += kFlowsPerBatch) {
        batch.clear();
        const std::size_t end = std::min(flows.size(), f + kFlowsPerBatch);
        for (std::size_t g = f; g < end; ++g) {
          batch.insert(batch.end(), flows[g].begin(), flows[g].end());
        }
        const Clock::time_point start = Clock::now();
        for (wire::Packet& pkt : batch) {
          device->process(std::move(pkt), netsim::Direction::kLeftToRight);
          net.sim().run_until_idle();
        }
        timed += seconds_between(start, Clock::now());
        packets += batch.size();
      }
      net.sim().run_for(util::Duration::seconds(600));
      ns_per_packet.push_back(timed * 1e9 / static_cast<double>(packets));
      total += timed;
    }
    return median(ns_per_packet);
  }
};

wire::Ipv4Header upstream_ip(std::uint16_t ip_id) {
  wire::Ipv4Header ip;
  ip.src = Ipv4Addr(5, 1, 0, 2);
  ip.dst = Ipv4Addr(9, 1, 0, 2);
  ip.ttl = 64;
  ip.id = ip_id;
  return ip;
}

/// The §7 fingerprint trains: a SYN padded and split into 45 fragments
/// (the queue limit, released) or 46 (one over, discarded), alternating,
/// one fresh queue key per train.
std::vector<std::vector<wire::Packet>> fragment_trains() {
  std::vector<std::vector<wire::Packet>> trains;
  for (int f = 0; f < kFlowsPerCycle; ++f) {
    const std::size_t n_fragments = f % 2 == 0 ? 45 : 46;
    const auto sport = static_cast<std::uint16_t>(kPortBase + f);
    util::Bytes payload(n_fragments * 8 + 12);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 37 + sport);
    }
    wire::TcpHeader syn;
    syn.src_port = sport;
    syn.dst_port = 7547;
    syn.seq = 0x77000000u + sport;
    syn.flags = wire::kSyn;
    trains.push_back(wire::fragment_into(
        wire::make_tcp_packet(upstream_ip(static_cast<std::uint16_t>(f)), syn,
                              payload),
        n_fragments));
  }
  return trains;
}

/// One ClientHello data packet per fresh flow, SNIs taken round-robin.
std::vector<std::vector<wire::Packet>> client_hellos(
    const std::vector<std::string>& snis) {
  std::vector<util::Bytes> records;
  for (const std::string& sni : snis) {
    tls::ClientHelloSpec spec;
    spec.sni = sni;
    records.push_back(tls::build_client_hello(spec));
  }
  std::vector<std::vector<wire::Packet>> flows;
  for (int f = 0; f < kFlowsPerCycle; ++f) {
    wire::TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(kPortBase + f);
    tcp.dst_port = 443;
    tcp.seq = 1;
    tcp.ack = 1;
    tcp.flags = wire::kPshAck;
    flows.push_back({wire::make_tcp_packet(
        upstream_ip(static_cast<std::uint16_t>(f)), tcp,
        records[static_cast<std::size_t>(f) % records.size()])});
  }
  return flows;
}

}  // namespace

DeviceCosts device_pass(const core::PolicyPtr& policy,
                        const std::vector<std::string>& snis,
                        double seconds_per_shape) {
  DeviceCosts costs;
  {
    DevicePath path(policy);
    costs.frag_ns = path.measure(fragment_trains(), seconds_per_shape);
  }
  {
    DevicePath path(policy);
    costs.tls_ns = path.measure(client_hellos(snis), seconds_per_shape);
  }
  return costs;
}

}  // namespace tspu::campaign_bench
