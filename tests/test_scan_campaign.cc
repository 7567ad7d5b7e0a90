// Tests for the national scan campaign (measure::parallel_scan) and
// link-loss robustness.
#include <gtest/gtest.h>

#include "measure/scan.h"
#include "netsim/host.h"
#include "netsim/router.h"
#include "topo/national.h"

using namespace tspu;

namespace {

topo::NationalConfig small_config() {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = 0.0006;
  cfg.n_ases = 50;
  cfg.echo_servers = 60;
  cfg.seed = 99;
  return cfg;
}

constexpr int kJobs = 2;

/// The scan builds its own replicas from small_config(); `topo` is one more
/// copy of the same world, read for ground truth.
class ScanCampaignTest : public ::testing::Test {
 protected:
  ScanCampaignTest() : topo(small_config()) {}
  topo::NationalTopology topo;
};

TEST_F(ScanCampaignTest, SummaryMatchesGroundTruth) {
  measure::ParallelScanConfig cfg;  // fingerprints only: fast full sweep
  const auto outcome = measure::parallel_scan(small_config(), cfg, kJobs);
  const measure::ScanSummary& summary = outcome.summary;

  std::size_t truth_positive = 0;
  for (const auto& ep : topo.endpoints()) {
    if (ep.tspu_downstream_visible) ++truth_positive;
  }
  EXPECT_EQ(summary.endpoints_probed, topo.endpoints().size());
  EXPECT_EQ(summary.tspu_positive, truth_positive);
  EXPECT_EQ(outcome.records.size(), summary.endpoints_probed);
}

TEST_F(ScanCampaignTest, LocalizationFillsHistogramAndLinks) {
  measure::ParallelScanConfig cfg;
  cfg.localize = true;
  cfg.trace_links = true;
  cfg.max_endpoints = 200;
  cfg.stride = 3;
  const measure::ScanSummary summary =
      measure::parallel_scan(small_config(), cfg, kJobs).summary;

  int localized = 0;
  for (const auto& [hops, count] : summary.hops_histogram) {
    EXPECT_GE(hops, 1);
    localized += count;
  }
  if (summary.tspu_positive > 0) {
    EXPECT_EQ(localized, static_cast<int>(summary.tspu_positive));
    EXPECT_FALSE(summary.tspu_links.empty());
    EXPECT_GT(summary.within_hops_share(8), 0.99);
  }
}

TEST_F(ScanCampaignTest, StrideAndCapRespected) {
  measure::ParallelScanConfig cfg;
  cfg.max_endpoints = 37;
  cfg.stride = 3;
  const auto outcome = measure::parallel_scan(small_config(), cfg, kJobs);
  EXPECT_EQ(outcome.summary.endpoints_probed, 37u);
  ASSERT_EQ(outcome.records.size(), 37u);
  for (std::size_t k = 0; k < outcome.records.size(); ++k) {
    EXPECT_EQ(outcome.records[k].endpoint_index, 3 * k);
  }
}

TEST_F(ScanCampaignTest, PerPortAggregation) {
  const measure::ScanSummary summary =
      measure::parallel_scan(small_config(), {}, kJobs).summary;
  int probed_sum = 0, positive_sum = 0;
  for (const auto& [port, pair] : summary.by_port) {
    probed_sum += pair.first;
    positive_sum += pair.second;
    EXPECT_LE(pair.second, pair.first);
  }
  EXPECT_EQ(probed_sum, static_cast<int>(summary.endpoints_probed));
  EXPECT_EQ(positive_sum, static_cast<int>(summary.tspu_positive));
}

// --------------------------------------------------------------- link loss

TEST(LinkLoss, DropsFractionOfPackets) {
  netsim::Network net;
  auto a_p = std::make_unique<netsim::Host>("a", util::Ipv4Addr(1, 0, 0, 2));
  auto* a = a_p.get();
  auto b_p = std::make_unique<netsim::Host>("b", util::Ipv4Addr(1, 0, 1, 2));
  auto* b = b_p.get();
  const auto aid = net.add(std::move(a_p));
  const auto r = net.add(
      std::make_unique<netsim::Router>("r", util::Ipv4Addr(1, 0, 0, 1)));
  const auto bid = net.add(std::move(b_p));
  net.link(aid, r);
  net.link(r, bid);
  net.routes(aid).set_default(r);
  net.routes(bid).set_default(r);
  net.routes(r).add(util::Ipv4Prefix(a->addr(), 32), aid);
  net.routes(r).add(util::Ipv4Prefix(b->addr(), 32), bid);
  net.set_link_loss(r, bid, 0.5);
  net.seed_loss_rng(4242);

  for (int i = 0; i < 400; ++i) {
    a->send_udp(b->addr(), 1, 2, util::to_bytes("x"));
  }
  net.sim().run_until_idle();
  int delivered = 0;
  for (const auto& cap : b->captured()) {
    if (!cap.outbound) ++delivered;
  }
  EXPECT_NEAR(delivered, 200, 50);

  // Repetition (the paper's >5-times rule) still gets a packet through
  // end-to-end with overwhelming probability.
  a->clear_captured();
  bool any_reply = false;
  for (int attempt = 0; attempt < 5 && !any_reply; ++attempt) {
    a->send_ping(b->addr(), 77);
    net.sim().run_until_idle();
    for (const auto& cap : a->captured()) {
      if (!cap.outbound && cap.pkt.ip.proto == wire::IpProto::kIcmp)
        any_reply = true;
    }
  }
  EXPECT_TRUE(any_reply);
}

}  // namespace
