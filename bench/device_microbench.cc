// Per-packet DPI inspection throughput through one TSPU device.
//
// Feeds three steady upstream streams straight into Device::process — the
// exact per-packet entry point every simulated path hits — with a routing
// sink downstream, and measures how many packets the device can INSPECT per
// second:
//
//   tls_benign    upstream ClientHello to :443 whose SNI misses the policy —
//                 the common case on a national path: full record/extension
//                 walk plus a longest-prefix policy probe, verdict "pass".
//   tls_matching  ClientHello whose SNI hits an SNI-I rule — the walk plus a
//                 policy hit, trigger bookkeeping, and block arming.
//   quic_benign   1200-byte UDP to :443 carrying a draft-29 Initial — the
//                 Figure-14 fingerprint probe that does NOT match.
//
// Every packet lands on a fresh flow (src ports cycle through a fixed
// window, with a 600-s quiesce between cycles so conntrack entries expire
// deterministically), so the device runs its complete admission + parse +
// match pipeline per packet instead of short-circuiting on an armed block.
// ClientHellos are padded to 1400 bytes, the Figure-13 MTU-filling shape
// real browsers produce.
//
// The headline section carries only deterministic counters (packets pushed,
// triggers fired, drops, rewrites) so BENCH json diffs stay clean across job
// counts; wall time and the inspected-packets/sec throughput — the number
// the zero-copy view decoders move — go to stderr and the runtime section.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "quic/quic.h"
#include "tls/clienthello.h"
#include "tspu/device.h"
#include "util/ip.h"
#include "wire/tcp.h"
#include "wire/udp.h"

using namespace tspu;
using util::Ipv4Addr;

namespace {

/// Ports cycle through this many fresh flows before a quiesce expires them.
constexpr int kPortWindow = 4096;
constexpr std::uint16_t kPortBase = 20000;

struct DevicePath {
  netsim::Network net;
  core::Device* device = nullptr;

  explicit DevicePath(const core::PolicyPtr& policy) {
    // Two routers with EMPTY routing tables bracket the device: everything
    // the device forwards is dropped at the neighbor in O(route-miss), so
    // the measured cost is the device's inspection pipeline, not transport.
    const auto r1 =
        net.add(std::make_unique<netsim::Router>("r1", Ipv4Addr(5, 1, 0, 1)));
    const auto r2 =
        net.add(std::make_unique<netsim::Router>("r2", Ipv4Addr(9, 1, 0, 1)));
    net.link(r1, r2);
    auto dev = std::make_unique<core::Device>("d", policy);
    device = dev.get();
    net.insert_inline(r1, r2, std::move(dev));
  }

  /// Pushes `count` copies of the template packets (one per port in the
  /// window, rotated round-robin) upstream into the device and quiesces
  /// between port cycles so every packet meets a fresh conntrack flow.
  /// Returns seconds spent inside the device: batches are refilled and
  /// moved in (a simulated hop hands the device a moved packet, it never
  /// copies one), and the refill + expiry quiesce run OFF the clock so the
  /// measured time is admission + parse + match + verdict, not harness
  /// copies or timer-wheel sweeps.
  double pump(const std::vector<wire::Packet>& per_port, long long count) {
    // Refill chunk: small enough that the packets copied off the clock are
    // still cache-resident when the timed loop inspects them, so the timed
    // section measures the inspection pipeline rather than DRAM refills.
    constexpr std::size_t kChunk = 256;
    double timed = 0;
    std::vector<wire::Packet> batch;
    batch.reserve(kChunk);
    for (long long done = 0; done < count;) {
      const auto cycle = static_cast<std::size_t>(
          std::min<long long>(kPortWindow, count - done));
      for (std::size_t off = 0; off < cycle; off += kChunk) {
        const std::size_t take = std::min(kChunk, cycle - off);
        batch.assign(
            per_port.begin() + static_cast<std::ptrdiff_t>(off),
            per_port.begin() + static_cast<std::ptrdiff_t>(off + take));
        const auto start = std::chrono::steady_clock::now();
        for (auto& pkt : batch) {
          device->process(std::move(pkt), netsim::Direction::kLeftToRight);
          net.sim().run_until_idle();
        }
        timed += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      }
      done += static_cast<long long>(cycle);
      net.sim().run_for(util::Duration::seconds(600));
    }
    return timed;
  }
};

/// One TCP PSH/ACK data packet per port in the window, all carrying `tls`.
std::vector<wire::Packet> tls_templates(const util::Bytes& tls) {
  std::vector<wire::Packet> out;
  out.reserve(kPortWindow);
  for (int p = 0; p < kPortWindow; ++p) {
    wire::Ipv4Header ip;
    ip.src = Ipv4Addr(5, 1, 0, 2);
    ip.dst = Ipv4Addr(9, 1, 0, 2);
    wire::TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(kPortBase + p);
    tcp.dst_port = 443;
    tcp.seq = 1;
    tcp.ack = 1;
    tcp.flags = wire::kPshAck;
    out.push_back(wire::make_tcp_packet(ip, tcp, tls));
  }
  return out;
}

/// One UDP datagram per port carrying a draft-29 QUIC Initial (1200 bytes:
/// long enough for the Figure-14 length gate, wrong version, so the
/// fingerprint walk runs and rejects).
std::vector<wire::Packet> quic_templates() {
  quic::InitialPacketSpec spec;
  spec.version = quic::kVersionDraft29;
  const util::Bytes initial = quic::build_initial(spec);
  std::vector<wire::Packet> out;
  out.reserve(kPortWindow);
  for (int p = 0; p < kPortWindow; ++p) {
    wire::Ipv4Header ip;
    ip.src = Ipv4Addr(5, 1, 0, 2);
    ip.dst = Ipv4Addr(9, 1, 0, 2);
    wire::UdpHeader udp;
    udp.src_port = static_cast<std::uint16_t>(kPortBase + p);
    udp.dst_port = 443;
    out.push_back(wire::make_udp_packet(ip, udp, initial));
  }
  return out;
}

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FATAL: %s\n", what);
  return ok;
}

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("device_microbench");
  const auto per_case = static_cast<long long>(100000 * report.scale());
  bench::banner("device microbench",
                "per-packet DPI inspection through one TSPU device, " +
                    std::to_string(per_case) + " packets per case");

  auto policy = std::make_shared<core::Policy>();
  core::SniPolicy rule;
  rule.rst_ack = true;
  policy->add_sni("facebook.com", rule);
  policy->add_sni("instagram.com", rule);
  policy->add_sni("twitter.com", rule);

  DevicePath path(policy);

  tls::ClientHelloSpec benign_spec;
  benign_spec.sni = "blog.example.com";
  benign_spec.pad_to = 1400;
  tls::ClientHelloSpec matching_spec;
  matching_spec.sni = "www.facebook.com";
  matching_spec.pad_to = 1400;
  const auto tls_benign = tls_templates(tls::build_client_hello(benign_spec));
  const auto tls_matching =
      tls_templates(tls::build_client_hello(matching_spec));
  const auto quic_benign = quic_templates();

  // Warm-up: grow event slabs, conntrack, and the payload pool.
  path.pump(tls_benign, 2048);
  const core::DeviceStats warm = path.device->stats();
  if (!check(warm.triggers[static_cast<int>(core::TriggerType::kSniI)] == 0,
             "warm-up benign traffic fired an SNI trigger"))
    return 1;

  const double tls_benign_wall = path.pump(tls_benign, per_case);
  const core::DeviceStats after_benign = path.device->stats();
  const double tls_matching_wall = path.pump(tls_matching, per_case);
  const core::DeviceStats after_matching = path.device->stats();
  const double quic_wall = path.pump(quic_benign, per_case);
  const core::DeviceStats final_stats = path.device->stats();

  // Self-checks: throughput work must not change verdict behavior. Every
  // packet was processed; benign SNI and wrong-version QUIC never trigger;
  // every matching ClientHello (each on a fresh flow) fires SNI-I exactly
  // once.
  const std::uint64_t sni_i =
      final_stats.triggers[static_cast<int>(core::TriggerType::kSniI)];
  const std::uint64_t quic_trig =
      final_stats.triggers[static_cast<int>(core::TriggerType::kQuic)];
  if (!check(final_stats.packets_processed ==
                 warm.packets_processed +
                     3 * static_cast<std::uint64_t>(per_case),
             "device did not process every pushed packet"))
    return 1;
  if (!check(after_benign.triggers[static_cast<int>(
                 core::TriggerType::kSniI)] == 0,
             "benign SNI traffic fired an SNI-I trigger"))
    return 1;
  if (!check(sni_i == static_cast<std::uint64_t>(per_case),
             "matching SNI traffic did not fire SNI-I once per flow"))
    return 1;
  if (!check(after_matching.packets_dropped == final_stats.packets_dropped &&
                 quic_trig == 0,
             "wrong-version QUIC traffic was censored"))
    return 1;

  std::printf("inspected: %lld packets per case x 3 cases\n", per_case);
  report.metric("packets_per_case", per_case);
  report.metric("packets_processed",
                static_cast<long long>(final_stats.packets_processed));
  report.metric("sni_i_triggers", static_cast<long long>(sni_i));
  report.metric("quic_triggers", static_cast<long long>(quic_trig));
  report.metric("rst_rewrites",
                static_cast<long long>(final_stats.rst_rewrites));
  report.metric("packets_dropped",
                static_cast<long long>(final_stats.packets_dropped));

  // Throughput is a runtime fact (varies run to run): stderr only, plus the
  // CI artifact grepped from it — never the deterministic headline section.
  const double total_wall = tls_benign_wall + tls_matching_wall + quic_wall;
  const double combined =
      total_wall > 0 ? 3 * static_cast<double>(per_case) / total_wall : 0;
  std::fprintf(stderr, "tls_benign_packets_per_sec: %.0f\n",
               tls_benign_wall > 0 ? per_case / tls_benign_wall : 0);
  std::fprintf(stderr, "tls_matching_packets_per_sec: %.0f\n",
               tls_matching_wall > 0 ? per_case / tls_matching_wall : 0);
  std::fprintf(stderr, "quic_packets_per_sec: %.0f\n",
               quic_wall > 0 ? per_case / quic_wall : 0);
  std::fprintf(stderr, "inspected_packets_per_sec: %.0f\n", combined);
  report.write();
  return 0;
}
