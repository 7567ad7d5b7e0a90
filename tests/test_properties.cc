// Property-style parameterized suites (TEST_P) over the core invariants:
// fragment-engine algebra, conntrack state/timeout mapping, ClientHello
// round-trips, and policy matching.
#include <gtest/gtest.h>

#include "tls/clienthello.h"
#include "tspu/conntrack.h"
#include "tspu/device.h"
#include "tspu/frag_engine.h"
#include "tspu/policy.h"
#include "util/rng.h"
#include "wire/fragment.h"

using namespace tspu;
using namespace tspu::core;
using util::Duration;
using util::Instant;
using util::Ipv4Addr;

namespace {

// ------------------------------- fragment engine: release-order property

class FragReleaseProperty : public ::testing::TestWithParam<int> {};

TEST_P(FragReleaseProperty, AnyArrivalOrderReleasesAllWithFirstTtl) {
  // For any shuffle of a k-fragment datagram, the engine releases exactly k
  // fragments once (and only once) the set completes, all stamped with the
  // offset-0 fragment's TTL.
  const int seed = GetParam();
  util::Rng rng(seed);
  const std::size_t k = 2 + rng.below(12);

  wire::Packet pkt;
  pkt.ip.src = Ipv4Addr(1, 1, 1, 1);
  pkt.ip.dst = Ipv4Addr(2, 2, 2, 2);
  pkt.ip.id = static_cast<std::uint16_t>(seed);
  pkt.payload.assign(k * 16, 0x7e);
  auto frags = wire::fragment_into(pkt, k);
  for (std::size_t i = 0; i < frags.size(); ++i) {
    frags[i].ip.ttl = static_cast<std::uint8_t>(10 + i);  // distinct TTLs
  }
  const std::uint8_t first_ttl = frags[0].ip.ttl;
  rng.shuffle(frags);

  FragmentEngine engine{FragmentTimeouts{}};
  std::vector<wire::Packet> released;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    auto out = engine.push(frags[i], Instant{});
    if (i + 1 < frags.size()) {
      EXPECT_TRUE(out.empty()) << "released before completion";
    }
    released.insert(released.end(), out.begin(), out.end());
  }
  ASSERT_EQ(released.size(), k);
  std::size_t total_bytes = 0;
  for (const auto& f : released) {
    EXPECT_EQ(f.ip.ttl, first_ttl);
    total_bytes += f.payload.size();
  }
  EXPECT_EQ(total_bytes, pkt.payload.size());
  EXPECT_EQ(engine.pending_queues(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shuffles, FragReleaseProperty,
                         ::testing::Range(1, 25));

// ------------------------------- fragment-count boundary sweep

class FragLimitBoundary : public ::testing::TestWithParam<int> {};

TEST_P(FragLimitBoundary, ReleasesIffAtMost45) {
  const int k = GetParam();
  wire::Packet pkt;
  pkt.ip.src = Ipv4Addr(3, 3, 3, 3);
  pkt.ip.dst = Ipv4Addr(4, 4, 4, 4);
  pkt.ip.id = static_cast<std::uint16_t>(k);
  pkt.payload.assign(static_cast<std::size_t>(k) * 8 + 8, 0x11);

  FragmentEngine engine{FragmentTimeouts{}};
  std::size_t released = 0;
  for (const auto& f : wire::fragment_into(pkt, k)) {
    released += engine.push(f, Instant{}).size();
  }
  if (k <= 45) {
    EXPECT_EQ(released, static_cast<std::size_t>(k));
  } else {
    EXPECT_EQ(released, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, FragLimitBoundary,
                         ::testing::Values(2, 10, 30, 44, 45, 46, 47, 50));

// ------------------------------- conntrack: first-packet initiator law

struct OpeningCase {
  const char* flags;
  bool from_local;
  bool expect_effective_client;
  const char* name;
};

// Without this gtest names each case by a byte dump of the struct, whose
// pointers change from build to build. Prints Table 8's notation ("Lsa").
void PrintTo(const OpeningCase& c, std::ostream* os) {
  *os << (c.from_local ? 'L' : 'R') << c.flags;
}

class ConntrackOpening : public ::testing::TestWithParam<OpeningCase> {};

TEST_P(ConntrackOpening, FirstPacketDecidesInitiator) {
  const auto& c = GetParam();
  ConnTracker tracker{ConntrackTimeouts{}, BlockingTimeouts{}};
  FlowKey key{Ipv4Addr(5, 1, 1, 1), Ipv4Addr(9, 9, 9, 9), 1234, 443,
              wire::IpProto::kTcp};
  auto flags = wire::TcpFlags::parse(c.flags);
  ASSERT_TRUE(flags);
  auto& e = tracker.track_tcp(key, *flags, c.from_local, Instant{});
  EXPECT_EQ(e.local_is_effective_client(), c.expect_effective_client);
  EXPECT_EQ(e.initiator,
            c.from_local ? Initiator::kLocal : Initiator::kRemote);
}

INSTANTIATE_TEST_SUITE_P(
    Openings, ConntrackOpening,
    ::testing::Values(OpeningCase{"s", true, true, "local_syn"},
                      OpeningCase{"sa", true, true, "local_synack"},
                      OpeningCase{"a", true, true, "local_ack"},
                      OpeningCase{"pa", true, true, "local_data"},
                      OpeningCase{"s", false, false, "remote_syn"},
                      OpeningCase{"sa", false, false, "remote_synack"},
                      OpeningCase{"a", false, false, "remote_ack"},
                      OpeningCase{"pa", false, false, "remote_data"}),
    [](const auto& tpi) { return tpi.param.name; });

// ------------------------------- conntrack: state -> timeout mapping

struct TimeoutCase {
  ConnState state;
  int seconds;
  const char* name;
};

class StateTimeoutMap : public ::testing::TestWithParam<TimeoutCase> {};

TEST_P(StateTimeoutMap, MatchesModelConstants) {
  ConnTracker tracker{ConntrackTimeouts{}, BlockingTimeouts{}};
  EXPECT_EQ(tracker.state_timeout(GetParam().state),
            Duration::seconds(GetParam().seconds));
}

INSTANTIATE_TEST_SUITE_P(
    States, StateTimeoutMap,
    ::testing::Values(
        TimeoutCase{ConnState::kLocalSynSent, 60, "local_syn_sent"},
        TimeoutCase{ConnState::kSynReceived, 105, "syn_received"},
        TimeoutCase{ConnState::kEstablished, 480, "established"},
        TimeoutCase{ConnState::kLocalOther, 420, "local_other"},
        TimeoutCase{ConnState::kRemoteSynSent, 30, "remote_syn_sent"},
        TimeoutCase{ConnState::kRemoteOther, 480, "remote_other"},
        TimeoutCase{ConnState::kRoleReversed, 180, "role_reversed"}),
    [](const auto& tpi) { return tpi.param.name; });

// ------------------------------- block-mode residual timeouts

struct BlockCase {
  BlockMode mode;
  int seconds;
  const char* name;
};

// Names each case by its expected residual, not by the struct's bytes.
void PrintTo(const BlockCase& c, std::ostream* os) { *os << c.seconds << 's'; }

class BlockTimeoutMap : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockTimeoutMap, MatchesTable2) {
  ConnTracker tracker{ConntrackTimeouts{}, BlockingTimeouts{}};
  EXPECT_EQ(tracker.block_timeout(GetParam().mode),
            Duration::seconds(GetParam().seconds));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BlockTimeoutMap,
    ::testing::Values(BlockCase{BlockMode::kSniRstAck, 75, "sni_i"},
                      BlockCase{BlockMode::kSniDelayedDrop, 420, "sni_ii"},
                      BlockCase{BlockMode::kSniBackupDrop, 40, "sni_iv"},
                      BlockCase{BlockMode::kQuicDrop, 420, "quic"}),
    [](const auto& tpi) { return tpi.param.name; });

// ------------------------------- ClientHello round-trip property

class ClientHelloRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ClientHelloRoundTrip, RandomSpecsSurviveParse) {
  util::Rng rng(GetParam());
  tls::ClientHelloSpec spec;
  // Random plausible hostname.
  const char* tlds[] = {".com", ".ru", ".org", ".net"};
  spec.sni = "host" + std::to_string(rng.below(100000)) +
             tlds[rng.below(4)];
  spec.cipher_suites.assign(1 + rng.below(40), 0x1301);
  spec.session_id.assign(rng.below(33), 0x5a);
  if (rng.bernoulli(0.5)) spec.pad_to = 200 + rng.below(1500);
  if (rng.bernoulli(0.3)) {
    spec.extra_extensions.push_back(
        {static_cast<std::uint16_t>(rng.below(60000)),
         util::Bytes(rng.below(64), 0x01)});
  }
  spec.record_version = rng.bernoulli(0.5) ? tls::kVersionTls10
                                           : tls::kVersionTls12;
  const auto ch = tls::build_client_hello(spec);
  auto parsed = tls::parse_client_hello(ch);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->sni, spec.sni);
  EXPECT_EQ(parsed->cipher_suite_count, spec.cipher_suites.size());
  if (spec.pad_to > 0) {
    EXPECT_GE(ch.size(), spec.pad_to);
  }
  // Multi-record extraction agrees with single-record on plain CHs.
  EXPECT_EQ(tls::extract_sni_multi_record(ch), spec.sni);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientHelloRoundTrip,
                         ::testing::Range(100, 140));

// ------------------------------- policy: subdomain matching property

class PolicyMatchProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolicyMatchProperty, SubdomainsMatchUnrelatedDont) {
  util::Rng rng(GetParam());
  Policy policy;
  SniPolicy rule;
  rule.rst_ack = true;
  const std::string base = "dom" + std::to_string(rng.below(10000)) + ".ru";
  policy.add_sni(base, rule);

  std::string sub = base;
  for (int depth = 0; depth < 3; ++depth) {
    sub = "l" + std::to_string(rng.below(100)) + "." + sub;
    EXPECT_TRUE(policy.match_sni(sub)) << sub;
  }
  EXPECT_FALSE(policy.match_sni("x" + base));            // prefix, not label
  EXPECT_FALSE(policy.match_sni(base + ".evil.org"));    // suffix attack
  EXPECT_FALSE(policy.match_sni("ru"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyMatchProperty,
                         ::testing::Range(200, 220));

// ------------------------------- grace packets: deterministic & in range

TEST(GraceProperty, DeterministicPerFlow) {
  FlowKey a{Ipv4Addr(1, 2, 3, 4), Ipv4Addr(5, 6, 7, 8), 1000, 443,
            wire::IpProto::kTcp};
  EXPECT_EQ(sni_ii_grace_packets(a), sni_ii_grace_packets(a));
  // Different flows spread over the 5..8 range.
  std::set<int> seen;
  for (std::uint16_t p = 0; p < 200; ++p) {
    FlowKey k = a;
    k.local_port = p;
    seen.insert(sni_ii_grace_packets(k));
  }
  EXPECT_EQ(seen.size(), 4u);  // all of {5,6,7,8} occur
}

}  // namespace
