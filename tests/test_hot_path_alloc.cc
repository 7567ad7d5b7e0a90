// Instrumented-allocator regression test for the netsim hot path.
//
// The perf contract this enforces: once the simulator is warm (slabs at
// their high-water mark, payload buffers recycling through the thread-local
// BufferPool), forwarding a packet across a host-router-host chain performs
// ZERO heap allocations — no std::function closures, no event-queue churn,
// no payload copies through malloc. The test counts global operator new
// calls across a measured steady-state window and fails with the allocation
// count per packet when the invariant breaks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "tls/clienthello.h"
#include "tspu/device.h"
#include "util/buffer_pool.h"
#include "wire/tcp.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// Counting overrides for every replaceable allocation signature the
// standard library may route through. Counting is gated on g_counting so
// gtest bookkeeping outside the measured window stays invisible.
void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n);
}
// noinline: once GCC inlines a delete into a caller it sees std::free
// paired with operator new and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tspu {
namespace {

using netsim::Host;
using netsim::Network;
using netsim::NodeId;
using netsim::Router;

struct CleanPath {
  Network net;
  Host* a = nullptr;
  Host* b = nullptr;
  util::Ipv4Addr b_addr;

  CleanPath() {
    auto host_a = std::make_unique<Host>("a", util::Ipv4Addr(10, 0, 0, 1));
    auto router =
        std::make_unique<Router>("r", util::Ipv4Addr(10, 0, 0, 254));
    auto host_b = std::make_unique<Host>("b", util::Ipv4Addr(10, 0, 0, 2));
    a = host_a.get();
    b = host_b.get();
    b_addr = b->addr();
    const NodeId ida = net.add(std::move(host_a));
    const NodeId idr = net.add(std::move(router));
    const NodeId idb = net.add(std::move(host_b));
    net.link(ida, idr);
    net.link(idr, idb);
    net.routes(ida).set_default(idr);
    net.routes(idb).set_default(idr);
    net.routes(idr).add(util::Ipv4Prefix(a->addr(), 32), ida);
    net.routes(idr).add(util::Ipv4Prefix(b_addr, 32), idb);
    // Steady state must not grow the capture buffers.
    a->set_capture_limit(0);
    b->set_capture_limit(0);
  }

  void pump(int packets) {
    const std::uint8_t payload[64] = {0xab};
    for (int i = 0; i < packets; ++i) {
      a->send_udp(b_addr, 40000, 9, payload);
      net.sim().run_until_idle();
    }
  }
};

TEST(HotPathAlloc, ZeroAllocationsPerForwardedPacketWhenWarm) {
#if defined(TSPU_BUFFER_POOL_PASSTHROUGH)
  GTEST_SKIP() << "buffer pool is in sanitizer passthrough mode; steady "
                  "state intentionally allocates so ASan sees every buffer";
#else
  CleanPath path;
  // Warm-up: grows the event slabs, the priority heap, FlatMap tables, and
  // charges the payload pool to its steady-state high-water mark.
  path.pump(64);

  constexpr int kPackets = 256;
  g_alloc_count.store(0);
  g_counting.store(true);
  path.pump(kPackets);
  g_counting.store(false);

  const std::uint64_t allocs = g_alloc_count.load();
  EXPECT_EQ(allocs, 0u)
      << "warm clean-path forwarding performed " << allocs
      << " heap allocations over " << kPackets << " packets ("
      << (static_cast<double>(allocs) / kPackets)
      << " per packet); the hot path must not touch the heap";
#endif
}

TEST(HotPathAlloc, ZeroAllocationsPerInspectedClientHelloWhenWarm) {
#if defined(TSPU_BUFFER_POOL_PASSTHROUGH)
  GTEST_SKIP() << "buffer pool is in sanitizer passthrough mode; steady "
                  "state intentionally allocates so ASan sees every buffer";
#else
  // The zero-copy inspection contract: a warm TSPU device inspecting a
  // full-size benign ClientHello on an ESTABLISHED flow — conntrack walk,
  // complete TLS record/extension parse, longest-suffix policy probe,
  // forward — touches the heap zero times. (Fresh flows legitimately
  // allocate their conntrack node, so the measured stream reuses one flow.)
  netsim::Network net;
  const netsim::NodeId r1 = net.add(
      std::make_unique<Router>("r1", util::Ipv4Addr(5, 1, 0, 1)));
  const netsim::NodeId r2 = net.add(
      std::make_unique<Router>("r2", util::Ipv4Addr(9, 1, 0, 1)));
  net.link(r1, r2);
  auto policy = std::make_shared<core::Policy>();
  core::SniPolicy rule;
  rule.rst_ack = true;
  policy->add_sni("facebook.com", rule);
  auto dev = std::make_unique<core::Device>("d", policy);
  core::Device* device = dev.get();
  net.insert_inline(r1, r2, std::move(dev));

  wire::Ipv4Header ip;
  ip.src = util::Ipv4Addr(5, 1, 0, 2);
  ip.dst = util::Ipv4Addr(9, 1, 0, 2);
  wire::TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 443;
  auto packet = [&](wire::TcpFlags flags, const util::Bytes& payload,
                    bool upstream) {
    wire::Ipv4Header pip = ip;
    wire::TcpHeader ptcp = tcp;
    if (!upstream) {
      std::swap(pip.src, pip.dst);
      std::swap(ptcp.src_port, ptcp.dst_port);
    }
    ptcp.flags = flags;
    return wire::make_tcp_packet(pip, ptcp, payload);
  };
  // Three-way handshake: the measured flow must be established so the
  // steady state exercises inspection, not admission.
  device->process(packet(wire::kSyn, {}, true), netsim::Direction::kLeftToRight);
  device->process(packet(wire::kSynAck, {}, false),
                  netsim::Direction::kRightToLeft);
  device->process(packet(wire::kAck, {}, true), netsim::Direction::kLeftToRight);
  net.sim().run_until_idle();

  tls::ClientHelloSpec spec;
  spec.sni = "blog.example.com";  // policy miss: the common national case
  spec.pad_to = 1400;
  const wire::Packet tmpl =
      packet(wire::kPshAck, tls::build_client_hello(spec), true);

  auto pump = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      wire::Packet copy = tmpl;
      device->process(std::move(copy), netsim::Direction::kLeftToRight);
      net.sim().run_until_idle();
    }
  };
  pump(64);  // warm: payload pool, event slabs, conntrack high-water mark

  constexpr int kPackets = 256;
  g_alloc_count.store(0);
  g_counting.store(true);
  pump(kPackets);
  g_counting.store(false);

  const core::DeviceStats stats = device->stats();
  ASSERT_EQ(stats.triggers[static_cast<int>(core::TriggerType::kSniI)], 0u)
      << "benign SNI fired a trigger; the test no longer measures the "
         "inspect-and-pass path";
  const std::uint64_t allocs = g_alloc_count.load();
  EXPECT_EQ(allocs, 0u)
      << "warm ClientHello inspection performed " << allocs
      << " heap allocations over " << kPackets << " packets ("
      << (static_cast<double>(allocs) / kPackets)
      << " per packet); the zero-copy inspection path must not touch the heap";
#endif
}

TEST(HotPathAlloc, BufferPoolRecyclesAndPurges) {
#if defined(TSPU_BUFFER_POOL_PASSTHROUGH)
  GTEST_SKIP() << "buffer pool disabled under sanitizers";
#else
  // A released buffer must come back for the next same-bucket request, and
  // reset_buffer_pool() (the begin_trial hook) must empty the free lists.
  { util::Bytes scratch(100); }  // allocate + free one pooled block
  EXPECT_GT(util::tl_buffer_pool.cached_blocks(), 0u);
  util::reset_buffer_pool();
  EXPECT_EQ(util::tl_buffer_pool.cached_blocks(), 0u);
#endif
}

}  // namespace
}  // namespace tspu
