// Unit tests for the discrete-event simulator, routing, routers (TTL/ICMP),
// transparent middleboxes, and the host mini TCP/UDP stacks.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "ispdpi/middleboxes.h"
#include "netsim/host.h"
#include "netsim/middlebox.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "tls/clienthello.h"
#include "util/rng.h"
#include "wire/icmp.h"

using namespace tspu;
using namespace tspu::netsim;
using tspu::util::Duration;
using tspu::util::Ipv4Addr;
using tspu::util::Ipv4Prefix;

namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().as_micros(), 30'000);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule(Duration::millis(1), [&, i] { order.push_back(i); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunForAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_for(Duration::seconds(60));
  EXPECT_EQ(sim.now().as_micros(), 60'000'000);
}

TEST(Simulator, RunForStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::seconds(1), [&] { ++fired; });
  sim.schedule(Duration::seconds(10), [&] { ++fired; });
  sim.run_for(Duration::seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(Duration::millis(1), recurse);
  };
  sim.schedule(Duration::millis(1), recurse);
  sim.run_until_idle();
  EXPECT_EQ(depth, 5);
}

// The simulator queues events in one FIFO lane per delay. The tests below
// drive it and a plain binary heap over (at, seq) with one seeded stream and
// require the same dispatch sequence and clock.

struct Spawn {
  Duration delay;
  bool packet;
};

/// Zero, the two link delays, the 1 s retransmit timer, and a few hundred
/// jittered link delays.
Duration draw_delay(util::Rng& r) {
  switch (r.below(5)) {
    case 0:
      return Duration::micros(0);
    case 1:
      return Duration::micros(500);
    case 2:
      return Duration::millis(1);
    case 3:
      return Duration::seconds(1);
    default:
      return Duration::micros(1000 + static_cast<std::int64_t>(r.below(300)));
  }
}

std::vector<Spawn> draw_spawns(util::Rng& r, std::uint64_t max_count) {
  std::vector<Spawn> out(r.below(max_count + 1));
  for (Spawn& s : out) s = Spawn{draw_delay(r), r.bernoulli(0.5)};
  return out;
}

/// What an event schedules when it runs: a pure function of its id, so both
/// queues grow the same tree of re-entrant events.
std::vector<Spawn> children_of(std::uint64_t seed, std::uint32_t id) {
  util::Rng r(seed * 0x9e3779b97f4a7c15ull + id);
  return r.bernoulli(0.45) ? draw_spawns(r, 2) : std::vector<Spawn>{};
}

using DispatchLog = std::vector<std::pair<std::uint32_t, std::int64_t>>;

/// The simulator under test. Packet events carry their id in `from`.
class LaneQueueRun final : public PacketSink {
 public:
  explicit LaneQueueRun(std::uint64_t seed) : seed_(seed) {
    sim.set_packet_sink(this);
  }

  void spawn(const std::vector<Spawn>& spawns) {
    for (const Spawn& s : spawns) {
      const std::uint32_t id = next_id_++;
      if (s.packet) {
        sim.schedule_packet(s.delay, id, 0, wire::Packet{});
      } else {
        sim.schedule(s.delay, [this, id] { ran(id); });
      }
    }
  }

  void deliver_scheduled(NodeId from, NodeId, wire::Packet) override {
    ran(from);
  }

  Simulator sim;
  DispatchLog log;

 private:
  void ran(std::uint32_t id) {
    log.emplace_back(id, sim.now().as_micros());
    spawn(children_of(seed_, id));
  }

  std::uint64_t seed_;
  std::uint32_t next_id_ = 0;
};

/// The reference: one binary heap over (at, seq).
class ReferenceRun {
 public:
  explicit ReferenceRun(std::uint64_t seed) : seed_(seed) {}

  void spawn(const std::vector<Spawn>& spawns) {
    for (const Spawn& s : spawns)
      queue_.push(Event{now + s.delay.as_micros(), seq_++, next_id_++});
  }

  /// Dispatches every event due by `deadline`, earliest (at, seq) first.
  void run_through(std::int64_t deadline) {
    while (!queue_.empty() && queue_.top().at <= deadline) {
      const Event e = queue_.top();
      queue_.pop();
      now = e.at;
      log.emplace_back(e.id, now);
      spawn(children_of(seed_, e.id));
    }
  }

  std::size_t pending() const { return queue_.size(); }

  std::int64_t now = 0;
  DispatchLog log;

 private:
  struct Event {
    std::int64_t at;
    std::uint64_t seq;
    std::uint32_t id;
    bool operator>(const Event& o) const {
      return std::tie(at, seq) > std::tie(o.at, o.seq);
    }
  };

  std::uint64_t seed_;
  std::uint64_t seq_ = 0;
  std::uint32_t next_id_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
};

TEST(Simulator, DispatchOrderMatchesReferenceHeap) {
  constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    LaneQueueRun lanes(seed);
    ReferenceRun ref(seed);
    util::Rng steps(seed);
    for (int step = 0; step < 400; ++step) {
      const std::vector<Spawn> roots = draw_spawns(steps, 6);
      lanes.spawn(roots);
      ref.spawn(roots);
      const std::uint64_t how = steps.below(10);
      if (how == 0) {
        lanes.sim.run_until_idle();
        ref.run_through(kForever);
      } else {
        // Mostly sub-2 ms windows, which stop inside the 1 ms and jitter
        // lanes; sometimes past the 1 s timers.
        const Duration d = how == 1
                               ? Duration::seconds(2)
                               : Duration::micros(static_cast<std::int64_t>(
                                     steps.below(2000)));
        lanes.sim.run_for(d);
        const std::int64_t deadline = ref.now + d.as_micros();
        ref.run_through(deadline);
        ref.now = deadline;
      }
      ASSERT_EQ(lanes.sim.now().as_micros(), ref.now)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(lanes.sim.pending(), ref.pending())
          << "seed " << seed << " step " << step;
    }
    lanes.sim.run_until_idle();
    ref.run_through(kForever);
    EXPECT_GT(ref.log.size(), 1000u);
    ASSERT_EQ(lanes.log, ref.log) << "seed " << seed;
  }
}

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable t;
  t.set_default(1);
  t.add(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8), 2);
  t.add(Ipv4Prefix(Ipv4Addr(10, 20, 0, 0), 16), 3);
  t.add(Ipv4Prefix(Ipv4Addr(10, 20, 30, 40), 32), 4);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 20, 30, 40)), 4u);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 20, 1, 1)), 3u);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 99, 1, 1)), 2u);
  EXPECT_EQ(t.lookup(Ipv4Addr(8, 8, 8, 8)), 1u);
}

TEST(RoutingTable, RewriteNextHop) {
  RoutingTable t;
  t.set_default(5);
  t.add(Ipv4Prefix(Ipv4Addr(10, 0, 0, 0), 8), 5);
  t.rewrite_next_hop(5, 9);
  EXPECT_EQ(t.lookup(Ipv4Addr(10, 1, 1, 1)), 9u);
  EXPECT_EQ(t.lookup(Ipv4Addr(1, 1, 1, 1)), 9u);
}

/// Line topology: client — r1 — r2 — server, optionally with a middlebox.
struct LineTopo {
  Network net;
  Host* client;
  Host* server;
  NodeId r1, r2;

  LineTopo() {
    auto c = std::make_unique<Host>("client", Ipv4Addr(10, 0, 0, 2));
    client = c.get();
    auto s = std::make_unique<Host>("server", Ipv4Addr(10, 9, 0, 2));
    server = s.get();
    const NodeId cid = net.add(std::move(c));
    r1 = net.add(std::make_unique<Router>("r1", Ipv4Addr(10, 0, 0, 1)));
    r2 = net.add(std::make_unique<Router>("r2", Ipv4Addr(10, 9, 0, 1)));
    const NodeId sid = net.add(std::move(s));
    net.link(cid, r1);
    net.link(r1, r2);
    net.link(r2, sid);
    net.routes(cid).set_default(r1);
    net.routes(sid).set_default(r2);
    net.routes(r1).set_default(r2);
    net.routes(r1).add(Ipv4Prefix(client->addr(), 32), cid);
    net.routes(r2).set_default(r1);
    net.routes(r2).add(Ipv4Prefix(server->addr(), 32), sid);
  }
};

TEST(Router, DecrementsTtl) {
  LineTopo t;
  wire::TcpHeader syn;
  syn.src_port = 1000;
  syn.dst_port = 2000;
  syn.flags = wire::kSyn;
  t.client->send_tcp(t.server->addr(), syn, {}, /*ttl=*/64);
  t.net.sim().run_until_idle();
  ASSERT_FALSE(t.server->captured().empty());
  EXPECT_EQ(t.server->captured().front().pkt.ip.ttl, 62);  // two routers
}

TEST(Router, EmitsTimeExceeded) {
  LineTopo t;
  wire::TcpHeader syn;
  syn.flags = wire::kSyn;
  t.client->send_tcp(t.server->addr(), syn, {}, /*ttl=*/1);
  t.net.sim().run_until_idle();
  bool got_te = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto msg = wire::parse_icmp(cap.pkt);
    if (msg && msg->type == wire::IcmpType::kTimeExceeded) {
      got_te = true;
      EXPECT_EQ(cap.pkt.ip.src, Ipv4Addr(10, 0, 0, 1));  // r1 reported
    }
  }
  EXPECT_TRUE(got_te);
  EXPECT_TRUE(t.server->captured().empty());
}

TEST(Router, AnswersPingToOwnAddress) {
  LineTopo t;
  t.client->send_ping(Ipv4Addr(10, 9, 0, 1), 5);
  t.net.sim().run_until_idle();
  bool got_reply = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto msg = wire::parse_icmp(cap.pkt);
    if (msg && msg->type == wire::IcmpType::kEchoReply && msg->id == 5)
      got_reply = true;
  }
  EXPECT_TRUE(got_reply);
}

TEST(Middlebox, TransparentBoxForwardsWithoutTtlDecrement) {
  LineTopo t;
  t.net.insert_inline(t.r1, t.r2,
                      std::make_unique<ispdpi::TransparentBox>("box"));
  wire::TcpHeader syn;
  syn.flags = wire::kSyn;
  t.client->send_tcp(t.server->addr(), syn, {}, 64);
  t.net.sim().run_until_idle();
  ASSERT_FALSE(t.server->captured().empty());
  // Still exactly two router decrements: the box is invisible.
  EXPECT_EQ(t.server->captured().front().pkt.ip.ttl, 62);
}

/// Records when each packet arrives and from which neighbour.
class ArrivalLog final : public Node {
 public:
  explicit ArrivalLog(std::string name) : Node(std::move(name), Ipv4Addr()) {}
  void receive(wire::Packet, NodeId from) override {
    arrivals.emplace_back(net().now().as_micros(), from);
  }
  std::vector<std::pair<std::int64_t, NodeId>> arrivals;
};

/// A transparent box that records when packets cross it.
class TimedBox final : public Middlebox {
 public:
  using Middlebox::Middlebox;
  void process(wire::Packet pkt, Direction dir) override {
    crossings.push_back(net().now().as_micros());
    forward_on(std::move(pkt), dir);
  }
  std::vector<std::int64_t> crossings;
};

using Arrivals = std::vector<std::pair<std::int64_t, NodeId>>;

TEST(NetworkLinks, RelinkingAPairKeepsTheLastDelay) {
  Network net;
  auto a_node = std::make_unique<ArrivalLog>("a");
  auto b_node = std::make_unique<ArrivalLog>("b");
  ArrivalLog* a = a_node.get();
  ArrivalLog* b = b_node.get();
  const NodeId ia = net.add(std::move(a_node));
  const NodeId ib = net.add(std::move(b_node));
  net.link(ia, ib, Duration::millis(1));
  net.link(ia, ib, Duration::millis(7));
  net.transmit(ia, ib, wire::Packet{});
  net.transmit(ib, ia, wire::Packet{});
  net.sim().run_until_idle();
  EXPECT_EQ(b->arrivals, (Arrivals{{7000, ia}}));
  EXPECT_EQ(a->arrivals, (Arrivals{{7000, ib}}));

  // Relinking after traffic flowed replaces the indexed delay too.
  net.link(ib, ia, Duration::millis(2));
  net.transmit(ia, ib, wire::Packet{});
  net.sim().run_until_idle();
  EXPECT_EQ(b->arrivals, (Arrivals{{7000, ia}, {9000, ia}}));
}

TEST(NetworkLinks, TopologyChangesAfterTrafficReindex) {
  Network net;
  auto a_node = std::make_unique<ArrivalLog>("a");
  auto b_node = std::make_unique<ArrivalLog>("b");
  auto c_node = std::make_unique<ArrivalLog>("c");
  ArrivalLog* b = b_node.get();
  ArrivalLog* c = c_node.get();
  const NodeId ia = net.add(std::move(a_node));
  const NodeId ib = net.add(std::move(b_node));
  net.link(ia, ib, Duration::micros(2001));
  net.transmit(ia, ib, wire::Packet{});
  net.sim().run_until_idle();
  ASSERT_EQ(b->arrivals, (Arrivals{{2001, ia}}));

  // A node added and linked after traffic flowed is reachable.
  const NodeId ic = net.add(std::move(c_node));
  net.link(ib, ic, Duration::millis(3));
  net.transmit(ib, ic, wire::Packet{});
  net.sim().run_until_idle();
  EXPECT_EQ(c->arrivals, (Arrivals{{5001, ib}}));

  // A box spliced into a—b after traffic flowed carries later packets with
  // the link's delay split around it, and a—b itself is gone.
  auto box_node = std::make_unique<TimedBox>("box");
  TimedBox* box = box_node.get();
  const NodeId ibox = net.insert_inline(ia, ib, std::move(box_node));
  net.transmit(ia, ibox, wire::Packet{});
  net.sim().run_until_idle();
  EXPECT_EQ(box->crossings, (std::vector<std::int64_t>{6001}));
  EXPECT_EQ(b->arrivals, (Arrivals{{2001, ia}, {7002, ibox}}));
  EXPECT_THROW(net.transmit(ia, ib, wire::Packet{}), std::logic_error);
}

TEST(NetworkLinks, TransmitOverANonLinkThrows) {
  LineTopo t;
  EXPECT_THROW(t.net.transmit(t.r1, t.net.find_by_addr(t.server->addr()),
                              wire::Packet{}),
               std::logic_error);
  // After the first transmit built the index, the answer is the same.
  t.net.transmit(t.r1, t.r2, wire::Packet{});
  EXPECT_THROW(t.net.transmit(t.r2, t.net.find_by_addr(t.client->addr()),
                              wire::Packet{}),
               std::logic_error);
}

TEST(Middlebox, InsertRequiresExistingLink) {
  LineTopo t;
  EXPECT_THROW(t.net.insert_inline(t.r1, 999,
                                   std::make_unique<ispdpi::TransparentBox>("b")),
               std::exception);
}

TEST(HostTcp, HandshakeAndEcho) {
  LineTopo t;
  t.server->listen(7, echo_server_options());
  auto& conn = t.client->connect(t.server->addr(), 7,
                                 TcpClientOptions{.src_port = 1234});
  t.net.sim().run_until_idle();
  EXPECT_TRUE(conn.established_once());
  conn.send(util::to_bytes("hello echo"));
  t.net.sim().run_until_idle();
  EXPECT_EQ(conn.received(), util::to_bytes("hello echo"));
}

TEST(HostTcp, TlsServerAnswersServerHello) {
  LineTopo t;
  t.server->listen(443, tls_server_options());
  auto& conn = t.client->connect(t.server->addr(), 443,
                                 TcpClientOptions{.src_port = 1235});
  t.net.sim().run_until_idle();
  tls::ClientHelloSpec spec;
  spec.sni = "example.com";
  conn.send(tls::build_client_hello(spec));
  t.net.sim().run_until_idle();
  ASSERT_FALSE(conn.received().empty());
  EXPECT_EQ(conn.received()[0], tls::kContentTypeHandshake);
  EXPECT_EQ(conn.received()[5], tls::kHandshakeServerHello);
}

TEST(HostTcp, RstOnClosedPort) {
  LineTopo t;
  auto& conn = t.client->connect(t.server->addr(), 81,
                                 TcpClientOptions{.src_port = 1236});
  t.net.sim().run_until_idle();
  EXPECT_TRUE(conn.got_rst());
  EXPECT_FALSE(conn.established_once());

  t.server->rst_on_closed_port = false;
  auto& conn2 = t.client->connect(t.server->addr(), 81,
                                  TcpClientOptions{.src_port = 1237});
  t.net.sim().run_until_idle();
  EXPECT_FALSE(conn2.got_rst());
}

TEST(HostTcp, SplitHandshakeServer) {
  LineTopo t;
  auto opts = tls_server_options();
  opts.split_handshake = true;
  t.server->listen(443, opts);
  auto& conn = t.client->connect(t.server->addr(), 443,
                                 TcpClientOptions{.src_port = 1238});
  t.net.sim().run_until_idle();
  EXPECT_TRUE(conn.established_once());
  conn.send(util::to_bytes("req"));
  t.net.sim().run_until_idle();
  EXPECT_FALSE(conn.received().empty());
}

TEST(HostTcp, ClientHonorsPeerWindow) {
  LineTopo t;
  auto opts = echo_server_options();
  opts.window = 100;
  t.server->listen(7, opts);
  auto& conn = t.client->connect(t.server->addr(), 7,
                                 TcpClientOptions{.src_port = 1239});
  t.net.sim().run_until_idle();
  const std::size_t out_before = t.client->captured().size();
  conn.send(util::Bytes(250, 0x61));
  t.net.sim().run_until_idle();
  // 250 bytes under a 100-byte window: at least 3 outgoing data segments.
  int data_segments = 0;
  for (std::size_t i = out_before; i < t.client->captured().size(); ++i) {
    const auto& cap = t.client->captured()[i];
    if (!cap.outbound) continue;
    auto seg = wire::parse_tcp(cap.pkt, false);
    if (seg && !seg->payload.empty()) {
      EXPECT_LE(seg->payload.size(), 100u);
      ++data_segments;
    }
  }
  EXPECT_GE(data_segments, 3);
  EXPECT_EQ(conn.received(), util::Bytes(250, 0x61));  // echo reassembled
}

TEST(HostTcp, ClientIpFragmentsData) {
  LineTopo t;
  t.server->listen(7, echo_server_options());
  TcpClientOptions copts;
  copts.src_port = 1240;
  copts.ip_fragment_payload = 64;
  auto& conn = t.client->connect(t.server->addr(), 7, copts);
  t.net.sim().run_until_idle();
  conn.send(util::Bytes(200, 0x42));
  t.net.sim().run_until_idle();
  // Server reassembled the fragments and echoed the payload back.
  EXPECT_EQ(conn.received(), util::Bytes(200, 0x42));
  bool saw_fragment = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound && cap.pkt.ip.is_fragment()) saw_fragment = true;
  }
  EXPECT_TRUE(saw_fragment);
}

TEST(HostTcp, RetransmissionHealsLoss) {
  // A middlebox that drops the first data segment it sees, then forwards.
  class DropOnce : public Middlebox {
   public:
    using Middlebox::Middlebox;
    void process(wire::Packet pkt, Direction dir) override {
      auto seg = wire::parse_tcp(pkt, false);
      if (seg && !seg->payload.empty() && !dropped_ &&
          dir == Direction::kLeftToRight) {
        dropped_ = true;
        return;
      }
      forward_on(std::move(pkt), dir);
    }
   private:
    bool dropped_ = false;
  };

  LineTopo t;
  t.net.insert_inline(t.r1, t.r2, std::make_unique<DropOnce>("drop-once"));
  t.server->listen(7, echo_server_options());
  auto& conn = t.client->connect(t.server->addr(), 7,
                                 TcpClientOptions{.src_port = 1241});
  t.net.sim().run_until_idle();
  conn.send(util::to_bytes("must arrive"));
  t.net.sim().run_until_idle();
  EXPECT_EQ(conn.received(), util::to_bytes("must arrive"));
}

TEST(HostUdp, HandlerAndReply) {
  LineTopo t;
  t.server->udp_listen(9999, [](Host& self, Ipv4Addr src,
                                const wire::UdpDatagram& d) {
    self.send_udp(src, 9999, d.hdr.src_port, d.payload);
  });
  t.client->send_udp(t.server->addr(), 5555, 9999, util::to_bytes("ping"));
  t.net.sim().run_until_idle();
  bool echoed = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto d = wire::parse_udp(cap.pkt);
    if (d && d->payload == util::to_bytes("ping")) echoed = true;
  }
  EXPECT_TRUE(echoed);
}

TEST(HostFragments, InboundReassembly) {
  LineTopo t;
  t.server->listen(80, echo_server_options());
  // Craft a fragmented SYN by hand.
  wire::TcpHeader syn;
  syn.src_port = 3333;
  syn.dst_port = 80;
  syn.seq = 1;
  syn.flags = wire::kSyn;
  wire::Ipv4Header ip;
  ip.src = t.client->addr();
  ip.dst = t.server->addr();
  ip.id = 99;
  wire::Packet pkt = wire::make_tcp_packet(ip, syn, util::Bytes(100, 0xcc));
  for (auto& frag : wire::fragment(pkt, 48)) {
    t.client->send_packet(std::move(frag));
  }
  t.net.sim().run_until_idle();
  bool got_synack = false;
  for (const auto& cap : t.client->captured()) {
    if (cap.outbound) continue;
    auto seg = wire::parse_tcp(cap.pkt, false);
    if (seg && seg->hdr.flags.is_syn_ack()) got_synack = true;
  }
  EXPECT_TRUE(got_synack);
}

TEST(HostCapture, LimitEnforced) {
  LineTopo t;
  t.server->set_capture_limit(2);
  for (int i = 0; i < 5; ++i) {
    t.client->send_udp(t.server->addr(), 1, 2, util::to_bytes("x"));
  }
  t.net.sim().run_until_idle();
  EXPECT_LE(t.server->captured().size(), 2u);
}

TEST(Network, PacketsTransmittedCounter) {
  LineTopo t;
  const auto before = t.net.packets_transmitted();
  t.client->send_udp(t.server->addr(), 1, 2, util::to_bytes("x"));
  t.net.sim().run_until_idle();
  EXPECT_GE(t.net.packets_transmitted(), before + 3);  // 3 hops
}

}  // namespace
