// Micro-bench for the allocation-free packet hot path: drives UDP packets
// across a host - router-chain - host topology and reports clean-path
// forwarding throughput in hops/sec (one hop = one link delivery). The
// typed event queue (PacketDelivery slab entries instead of std::function
// closures) plus the pooled payload buffers behind util::Bytes are the
// difference this measures; the headline section carries only deterministic
// counters (packets, hops) so BENCH json diffs stay clean across job
// counts, while wall time and hops/sec go to the runtime side.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "util/ip.h"

using namespace tspu;

namespace {

struct Chain {
  netsim::Network net;
  netsim::Host* a = nullptr;
  util::Ipv4Addr b_addr;
  int links = 0;

  explicit Chain(int routers) {
    auto host_a =
        std::make_unique<netsim::Host>("a", util::Ipv4Addr(10, 0, 0, 1));
    a = host_a.get();
    const netsim::NodeId ida = net.add(std::move(host_a));
    netsim::NodeId prev = ida;
    for (int i = 0; i < routers; ++i) {
      auto r = std::make_unique<netsim::Router>(
          "r" + std::to_string(i),
          util::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
      const netsim::NodeId idr = net.add(std::move(r));
      net.link(prev, idr);
      net.routes(prev).set_default(idr);
      prev = idr;
    }
    auto host_b =
        std::make_unique<netsim::Host>("b", util::Ipv4Addr(10, 0, 0, 2));
    b_addr = host_b->addr();
    netsim::Host* b = host_b.get();
    const netsim::NodeId idb = net.add(std::move(host_b));
    net.link(prev, idb);
    net.routes(prev).set_default(idb);
    links = routers + 1;
    // Steady-state forwarding, not capture accounting, is what's measured.
    a->set_capture_limit(0);
    b->set_capture_limit(0);
  }
};

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("packet_hop_microbench");
  const int routers = 8;
  const auto packets = static_cast<long long>(200000 * report.scale());
  bench::banner("packet hop microbench",
                "clean-path UDP forwarding over " + std::to_string(routers) +
                    " routers, " + std::to_string(packets) + " packets");

  Chain chain(routers);
  const std::uint8_t payload[64] = {0x5a};

  // Warm-up: grow event slabs, heap, and the payload pool to steady state.
  for (int i = 0; i < 1000; ++i) {
    chain.a->send_udp(chain.b_addr, 40000, 9, payload);
    chain.net.sim().run_until_idle();
  }
  const std::uint64_t warm_transmitted = chain.net.packets_transmitted();

  const auto start = std::chrono::steady_clock::now();
  for (long long i = 0; i < packets; ++i) {
    chain.a->send_udp(chain.b_addr, 40000, 9, payload);
    chain.net.sim().run_until_idle();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Self-check: every packet must traverse every link exactly once — any
  // drift means the fast path changed forwarding behavior, not just speed.
  const std::uint64_t hops =
      chain.net.packets_transmitted() - warm_transmitted;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(packets) *
      static_cast<std::uint64_t>(chain.links);
  if (hops != expected) {
    std::fprintf(stderr,
                 "FATAL: hop count mismatch: %llu delivered, %llu expected\n",
                 static_cast<unsigned long long>(hops),
                 static_cast<unsigned long long>(expected));
    return 1;
  }

  const double hops_per_sec = wall > 0 ? static_cast<double>(hops) / wall : 0;
  std::printf("clean path: %lld packets x %d links\n", packets, chain.links);
  std::printf("wall: %8.3f s\n", wall);
  std::printf("throughput: %.0f hops/sec\n", hops_per_sec);

  report.metric("packets", packets);
  report.metric("links", chain.links);
  report.metric("hops", static_cast<long long>(hops));
  // Throughput is a runtime fact (varies run to run): stderr only, plus the
  // CI artifact written below — never the deterministic headline section.
  std::fprintf(stderr, "hops_per_sec: %.0f\n", hops_per_sec);
  report.write();
  return 0;
}
