// Unit tests for the TSPU device internals: policy, conntrack transitions,
// fragment engine, and direct device semantics on a minimal path.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "tls/clienthello.h"
#include "tspu/conntrack.h"
#include "tspu/device.h"
#include "tspu/frag_engine.h"
#include "tspu/policy.h"

using namespace tspu;
using namespace tspu::core;
using tspu::util::Duration;
using tspu::util::Instant;
using tspu::util::Ipv4Addr;

namespace {

// ------------------------------------------------------------------ policy

TEST(Policy, SniSubdomainMatch) {
  Policy p;
  SniPolicy rule;
  rule.rst_ack = true;
  p.add_sni("Facebook.com", rule);
  EXPECT_TRUE(p.match_sni("facebook.com"));
  EXPECT_TRUE(p.match_sni("api.FACEBOOK.com"));
  EXPECT_TRUE(p.match_sni("a.b.c.facebook.com"));
  EXPECT_FALSE(p.match_sni("facebook.org"));
  EXPECT_FALSE(p.match_sni("notfacebook.com"));
  EXPECT_FALSE(p.match_sni("com"));

  // Another spelling of the same domain replaces the rule, not adds one.
  EXPECT_EQ(p.sni_rule_count(), 1u);
  SniPolicy drop;
  drop.delayed_drop = true;
  p.add_sni("Facebook.COM", drop);
  EXPECT_EQ(p.sni_rule_count(), 1u);
  const auto replaced = p.match_sni("api.facebook.com");
  ASSERT_TRUE(replaced);
  EXPECT_TRUE(replaced->delayed_drop);
  EXPECT_FALSE(replaced->rst_ack);
}

TEST(Policy, IpBlocklist) {
  Policy p;
  const Ipv4Addr tor(163, 172, 0, 11);
  EXPECT_FALSE(p.ip_blocked(tor));
  p.block_ip(tor);
  EXPECT_TRUE(p.ip_blocked(tor));
  p.unblock_ip(tor);
  EXPECT_FALSE(p.ip_blocked(tor));
}

TEST(Policy, CentralizedSharedInstance) {
  // Two devices sharing one Policy see updates simultaneously — the
  // architectural uniformity property (§5.1).
  auto policy = std::make_shared<Policy>();
  Device a("a", policy), b("b", policy);
  SniPolicy rule;
  rule.rst_ack = true;
  policy->add_sni("newly-blocked.ru", rule);
  EXPECT_TRUE(a.policy().match_sni("newly-blocked.ru"));
  EXPECT_TRUE(b.policy().match_sni("newly-blocked.ru"));
}

// --------------------------------------------------------------- conntrack

class ConntrackTest : public ::testing::Test {
 protected:
  ConntrackTest() : tracker(ConntrackTimeouts{}, BlockingTimeouts{}) {}

  FlowKey key() const {
    return FlowKey{Ipv4Addr(5, 1, 1, 1), Ipv4Addr(9, 9, 9, 9), 40000, 443,
                   wire::IpProto::kTcp};
  }

  ConnTracker tracker;
  Instant now;
};

TEST_F(ConntrackTest, LocalSynOpensLocalSynSent) {
  auto& e = tracker.track_tcp(key(), wire::kSyn, /*from_local=*/true, now);
  EXPECT_EQ(e.state, ConnState::kLocalSynSent);
  EXPECT_EQ(e.initiator, Initiator::kLocal);
  EXPECT_TRUE(e.local_is_effective_client());
}

TEST_F(ConntrackTest, RemoteFirstExemptsLocal) {
  auto& e = tracker.track_tcp(key(), wire::kSyn, /*from_local=*/false, now);
  EXPECT_EQ(e.state, ConnState::kRemoteSynSent);
  EXPECT_FALSE(e.local_is_effective_client());
}

TEST_F(ConntrackTest, LocalSynAckFirstIsLocalOther) {
  auto& e = tracker.track_tcp(key(), wire::kSynAck, true, now);
  EXPECT_EQ(e.state, ConnState::kLocalOther);
  EXPECT_TRUE(e.local_is_effective_client());  // §7.1.1: valid prefix
}

TEST_F(ConntrackTest, SplitHandshakeReversesRoles) {
  tracker.track_tcp(key(), wire::kSyn, true, now);
  tracker.track_tcp(key(), wire::kSyn, false, now);
  auto& e = tracker.track_tcp(key(), wire::kSynAck, true, now);
  EXPECT_TRUE(e.reversed);
  EXPECT_EQ(e.state, ConnState::kRoleReversed);
  EXPECT_FALSE(e.local_is_effective_client());
}

TEST_F(ConntrackTest, NormalHandshakeEstablishes) {
  tracker.track_tcp(key(), wire::kSyn, true, now);
  tracker.track_tcp(key(), wire::kSynAck, false, now);
  auto& e = tracker.track_tcp(key(), wire::kAck, true, now);
  EXPECT_EQ(e.state, ConnState::kEstablished);
  EXPECT_TRUE(e.local_is_effective_client());
}

TEST_F(ConntrackTest, SimultaneousOpenIsSynReceived) {
  tracker.track_tcp(key(), wire::kSyn, true, now);
  auto& e = tracker.track_tcp(key(), wire::kSyn, false, now);
  EXPECT_EQ(e.state, ConnState::kSynReceived);
}

TEST_F(ConntrackTest, EntryExpiresAfterStateTimeout) {
  tracker.track_tcp(key(), wire::kSyn, true, now);  // 60 s SYN-SENT
  EXPECT_NE(tracker.find(key(), now + Duration::seconds(59)), nullptr);
  EXPECT_EQ(tracker.find(key(), now + Duration::seconds(61)), nullptr);
}

TEST_F(ConntrackTest, RemoteSynShorterTimeout) {
  tracker.track_tcp(key(), wire::kSyn, false, now);  // 30 s
  EXPECT_NE(tracker.find(key(), now + Duration::seconds(29)), nullptr);
  EXPECT_EQ(tracker.find(key(), now + Duration::seconds(31)), nullptr);
}

TEST_F(ConntrackTest, ActivityRefreshesTimeout) {
  tracker.track_tcp(key(), wire::kSyn, false, now);
  tracker.track_tcp(key(), wire::kAck, false, now + Duration::seconds(25));
  EXPECT_NE(tracker.find(key(), now + Duration::seconds(50)), nullptr);
}

TEST_F(ConntrackTest, BlockedEntryUsesResidualTimeout) {
  auto& e = tracker.track_tcp(key(), wire::kSyn, true, now);
  e.block = BlockMode::kSniRstAck;  // 75 s residual
  e.block_last_activity = now;
  EXPECT_NE(tracker.find(key(), now + Duration::seconds(74)), nullptr);
  EXPECT_EQ(tracker.find(key(), now + Duration::seconds(76)), nullptr);
}

TEST_F(ConntrackTest, UdpTrackingOnlyOnDemand) {
  FlowKey udp_key = key();
  udp_key.proto = wire::IpProto::kUdp;
  EXPECT_EQ(tracker.track_udp(udp_key, true, now, /*create=*/false), nullptr);
  EXPECT_NE(tracker.track_udp(udp_key, true, now, /*create=*/true), nullptr);
  EXPECT_NE(tracker.track_udp(udp_key, true, now, /*create=*/false), nullptr);
}

TEST_F(ConntrackTest, FlowKeyPackedCompareMatchesMemberwiseOrder) {
  // The hand-packed two-u64 operator<=> must order exactly like the
  // memberwise (local, remote, local_port, remote_port, proto) tuple it
  // replaced — conntrack's map iteration order (and thus every trace and
  // serialized table) depends on it.
  std::vector<FlowKey> keys;
  const std::uint32_t addrs[] = {0, 1, 0x05010101, 0x09090909, 0xffffffff};
  const std::uint16_t ports[] = {0, 80, 443, 40000, 0xffff};
  for (std::uint32_t local : addrs)
    for (std::uint32_t remote : addrs)
      for (std::uint16_t lp : ports)
        for (wire::IpProto proto : {wire::IpProto::kTcp, wire::IpProto::kUdp})
          keys.push_back(FlowKey{Ipv4Addr(local), Ipv4Addr(remote), lp,
                                 static_cast<std::uint16_t>(lp ^ 443), proto});
  auto memberwise = [](const FlowKey& a, const FlowKey& b) {
    return std::tuple(a.local.value(), a.remote.value(), a.local_port,
                      a.remote_port, static_cast<int>(a.proto)) <=>
           std::tuple(b.local.value(), b.remote.value(), b.local_port,
                      b.remote_port, static_cast<int>(b.proto));
  };
  for (const FlowKey& a : keys) {
    for (const FlowKey& b : keys) {
      ASSERT_EQ(a <=> b, memberwise(a, b));
      ASSERT_EQ(a == b, memberwise(a, b) == 0);
    }
  }
}

TEST_F(ConntrackTest, ExpiredEntryIsReplacedByAFreshOne) {
  // A SYN against a lazily-expired entry must behave exactly like a SYN on
  // a never-seen flow: fresh state machine, stale stream bytes gone. (The
  // unbounded-table fast path reuses the map node in place; this pins the
  // observable behavior that optimization must preserve.)
  auto& stale = tracker.track_tcp(key(), wire::kSyn, /*from_local=*/true, now);
  stale.upstream_stream = {1, 2, 3, 4};
  stale.grace_remaining = 3;
  const Instant later = now + Duration::seconds(61);  // past SYN-SENT timeout
  EXPECT_EQ(tracker.find(key(), later), nullptr);
  auto& fresh = tracker.track_tcp(key(), wire::kSyn, /*from_local=*/true, later);
  EXPECT_EQ(fresh.state, ConnState::kLocalSynSent);
  EXPECT_EQ(fresh.initiator, Initiator::kLocal);
  EXPECT_TRUE(fresh.upstream_stream.empty());
  EXPECT_EQ(fresh.grace_remaining, 0);
  EXPECT_EQ(tracker.size(), 1u);
}

TEST_F(ConntrackTest, GracePacketCountInRange) {
  for (int i = 0; i < 50; ++i) {
    FlowKey k = key();
    k.local_port = static_cast<std::uint16_t>(1000 + i * 13);
    const int g = sni_ii_grace_packets(k);
    EXPECT_GE(g, 5);
    EXPECT_LE(g, 8);
  }
}

// ----------------------------------------------------------- frag engine

class FragEngineTest : public ::testing::Test {
 protected:
  static wire::Packet packet(std::size_t size, std::uint16_t id) {
    wire::Packet pkt;
    pkt.ip.src = Ipv4Addr(1, 1, 1, 1);
    pkt.ip.dst = Ipv4Addr(2, 2, 2, 2);
    pkt.ip.id = id;
    pkt.ip.ttl = 60;
    pkt.payload.assign(size, 0xab);
    return pkt;
  }

  FragmentEngine engine{FragmentTimeouts{}};
  Instant now;
};

TEST_F(FragEngineTest, BuffersUntilLastThenReleasesWithoutReassembly) {
  auto frags = wire::fragment(packet(120, 1), 40);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_TRUE(engine.push(frags[0], now).empty());
  EXPECT_TRUE(engine.push(frags[1], now).empty());
  auto out = engine.push(frags[2], now);
  ASSERT_EQ(out.size(), 3u);  // individual fragments, not one packet
  for (const auto& f : out) EXPECT_TRUE(f.ip.is_fragment() || f.ip.frag_offset == 0);
  EXPECT_EQ(engine.pending_queues(), 0u);
}

TEST_F(FragEngineTest, RewritesTtlToFirstFragments) {
  auto frags = wire::fragment(packet(80, 2), 40);
  frags[0].ip.ttl = 55;
  frags[1].ip.ttl = 3;  // the TTL-limited localization probe shape
  engine.push(frags[0], now);
  auto out = engine.push(frags[1], now);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ip.ttl, 55);
  EXPECT_EQ(out[1].ip.ttl, 55);  // Figure 3: second fragment re-stamped
}

TEST_F(FragEngineTest, TtlRewriteUsesZeroOffsetFragmentEvenWhenLate) {
  auto frags = wire::fragment(packet(80, 3), 40);
  frags[0].ip.ttl = 44;
  frags[1].ip.ttl = 9;
  engine.push(frags[1], now);  // out of order: trailing fragment first
  auto out = engine.push(frags[0], now);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ip.ttl, 44);
  EXPECT_EQ(out[1].ip.ttl, 44);
}

TEST_F(FragEngineTest, DuplicatePoisonsQueue) {
  auto frags = wire::fragment(packet(120, 4), 40);
  engine.push(frags[0], now);
  engine.push(frags[1], now);
  EXPECT_TRUE(engine.push(frags[1], now).empty());  // duplicate: discard all
  EXPECT_EQ(engine.pending_queues(), 0u);
  // The final fragment alone can never complete the datagram.
  EXPECT_TRUE(engine.push(frags[2], now).empty());
  EXPECT_EQ(engine.stats().queues_discarded_overlap, 1u);
}

TEST_F(FragEngineTest, OverlapPoisonsQueue) {
  auto frags = wire::fragment(packet(120, 5), 40);
  engine.push(frags[0], now);
  wire::Packet overlap = frags[1];
  overlap.ip.frag_offset = 32;  // overlaps [0,40)
  EXPECT_TRUE(engine.push(overlap, now).empty());
  EXPECT_EQ(engine.pending_queues(), 0u);
}

TEST_F(FragEngineTest, FortyFiveFragmentLimit) {
  // 45 fragments: released. 46: the queue dies at the 46th (§5.3.1).
  {
    auto frags = wire::fragment_into(packet(400, 6), 45);
    std::vector<wire::Packet> released;
    for (const auto& f : frags) {
      auto out = engine.push(f, now);
      released.insert(released.end(), out.begin(), out.end());
    }
    EXPECT_EQ(released.size(), 45u);
  }
  {
    auto frags = wire::fragment_into(packet(400, 7), 46);
    std::vector<wire::Packet> released;
    for (const auto& f : frags) {
      auto out = engine.push(f, now);
      released.insert(released.end(), out.begin(), out.end());
    }
    EXPECT_TRUE(released.empty());
    EXPECT_EQ(engine.stats().queues_discarded_limit, 1u);
  }
}

TEST_F(FragEngineTest, FiveSecondQueueTimeout) {
  auto frags = wire::fragment(packet(80, 8), 40);
  engine.push(frags[0], now);
  EXPECT_EQ(engine.pending_queues(), 1u);
  engine.expire(now + Duration::seconds(6));
  EXPECT_EQ(engine.pending_queues(), 0u);
  EXPECT_EQ(engine.stats().queues_discarded_timeout, 1u);
  // Late last fragment starts a new (incomplete) queue.
  EXPECT_TRUE(engine.push(frags[1], now + Duration::seconds(6)).empty());
}

TEST_F(FragEngineTest, IndependentQueuesPerKey) {
  auto a = wire::fragment(packet(80, 10), 40);
  auto b = wire::fragment(packet(80, 11), 40);
  engine.push(a[0], now);
  engine.push(b[0], now);
  EXPECT_EQ(engine.pending_queues(), 2u);
  EXPECT_EQ(engine.push(a[1], now).size(), 2u);
  EXPECT_EQ(engine.push(b[1], now).size(), 2u);
}

}  // namespace
