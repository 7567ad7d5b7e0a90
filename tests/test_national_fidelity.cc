// Statistical fidelity of the national topology + scan: the §7.3 shape
// claims (port skew, AS concentration), and the measurement confounds the
// paper itself calls out.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ispdpi/middleboxes.h"
#include "measure/frag_probe.h"
#include "measure/scan.h"
#include "netsim/host.h"
#include "netsim/router.h"
#include "topo/national.h"
#include "tspu/device.h"

using namespace tspu;

namespace {

class NationalFidelity : public ::testing::Test {
 protected:
  static topo::NationalConfig config() {
    topo::NationalConfig cfg;
    cfg.endpoint_scale = 0.002;  // ~8k endpoints
    cfg.n_ases = 200;
    cfg.seed = 650;
    return cfg;
  }
  static topo::NationalTopology& topo() {
    static topo::NationalTopology t(config());
    return t;
  }
};

TEST_F(NationalFidelity, PortSkewMatchesFigure9) {
  // Ground-truth shape (the scan recovers the same, see ScanCampaignTest):
  // port 7547 endpoints are >3x more likely to sit behind a TSPU than the
  // server ports 22/80/443 (§7.3).
  std::map<std::uint16_t, std::pair<int, int>> by_port;  // total, covered
  for (const auto& ep : topo().endpoints()) {
    auto& [total, covered] = by_port[ep.port];
    ++total;
    covered += ep.tspu_downstream_visible || ep.tspu_upstream_visible;
  }
  auto share = [&](std::uint16_t port) {
    const auto& [total, covered] = by_port[port];
    return total == 0 ? 0.0 : double(covered) / total;
  };
  const double server_avg = (share(22) + share(80) + share(443)) / 3;
  EXPECT_GT(share(7547), 0.5);
  EXPECT_GT(share(7547), 3 * server_avg);
  EXPECT_LT(server_avg, 0.25);
}

TEST_F(NationalFidelity, MinorityOfAsesMajorityConcentration) {
  int covered_ases = 0;
  std::size_t covered_eps = 0, total_eps = 0;
  for (const auto& as : topo().ases()) {
    const bool covered = as.has_tspu || as.behind_transit_tspu;
    covered_ases += covered;
    total_eps += as.endpoint_count;
    if (covered) covered_eps += as.endpoint_count;
  }
  const double as_share = double(covered_ases) / topo().ases().size();
  const double ep_share = double(covered_eps) / total_eps;
  // §7.3: 13% of ASes, 25% of endpoints *visible to the frag scan*. The
  // ground-truth share here counts ANY coverage (upstream-only and transit
  // devices included), which the paper itself says its numbers are lower
  // bounds for — so the endpoint band sits above the scan's 25%.
  EXPECT_GT(as_share, 0.05);
  EXPECT_LT(as_share, 0.35);
  EXPECT_GT(ep_share, 0.18);
  EXPECT_LT(ep_share, 0.60);
  EXPECT_GT(ep_share, as_share);  // big eyeball networks concentrate coverage
}

TEST_F(NationalFidelity, HopsHistogramHasLeafBiasAndTail) {
  std::map<int, int> hist;
  int total = 0;
  for (const auto& ep : topo().endpoints()) {
    if (ep.tspu_hops_from_endpoint < 0) continue;
    ++hist[ep.tspu_hops_from_endpoint];
    ++total;
  }
  ASSERT_GT(total, 100);
  const double within_two = double(hist[1] + hist[2]) / total;
  EXPECT_GT(within_two, 0.5);   // leaf bias (paper: 69%)
  EXPECT_LT(within_two, 0.95);  // but a real 3+-hop tail exists
  int tail = 0;
  for (const auto& [h, c] : hist) {
    if (h >= 3) tail += c;
  }
  EXPECT_GT(tail, 0);
}

TEST_F(NationalFidelity, ScanRecoversGroundTruthShares) {
  measure::ParallelScanConfig cfg;
  cfg.stride = 7;  // sample
  const measure::ScanSummary summary =
      measure::parallel_scan(config(), cfg, /*jobs=*/2).summary;

  // Compare the scan's positive share against downstream-visible ground
  // truth over the same sample.
  std::size_t truth = 0, sampled = 0;
  for (std::size_t i = 0; i < topo().endpoints().size(); i += 7) {
    ++sampled;
    truth += topo().endpoints()[i].tspu_downstream_visible;
  }
  EXPECT_EQ(summary.endpoints_probed, sampled);
  EXPECT_EQ(summary.tspu_positive, truth);
}

// ---- the §7.3 confound: "other DPIs or firewalls on the path may buffer
// or reassemble fragments before reaching the TSPU."

TEST(FragConfound, ReassemblingBoxBeforeTspuHidesTheFingerprint) {
  using netsim::Host;
  using netsim::Router;
  using util::Ipv4Addr;
  using util::Ipv4Prefix;

  netsim::Network net;
  auto policy = std::make_shared<core::Policy>();
  auto prober_p = std::make_unique<Host>("prober", Ipv4Addr(9, 0, 0, 2));
  auto* prober = prober_p.get();
  auto target_p = std::make_unique<Host>("target", Ipv4Addr(45, 9, 0, 2));
  auto* target = target_p.get();
  target->listen(7547, netsim::TcpServerOptions{});
  const auto pid = net.add(std::move(prober_p));
  const auto r1 = net.add(std::make_unique<Router>("r1", Ipv4Addr(9, 0, 0, 1)));
  const auto r2 = net.add(std::make_unique<Router>("r2", Ipv4Addr(45, 9, 0, 1)));
  const auto tid = net.add(std::move(target_p));
  net.link(pid, r1);
  net.link(r1, r2);
  net.link(r2, tid);
  net.routes(pid).set_default(r1);
  net.routes(tid).set_default(r2);
  net.routes(r1).set_default(r2);
  net.routes(r1).add(Ipv4Prefix(prober->addr(), 32), pid);
  net.routes(r2).set_default(r1);
  net.routes(r2).add(Ipv4Prefix(target->addr(), 32), tid);

  // An ISP security box that reassembles fragments sits OUTSIDE (closer to
  // the prober than) the TSPU.
  net.insert_inline(r2, r1, std::make_unique<ispdpi::FragmentInspectingBox>(
                                "security-box", ispdpi::linux_like_reassembly(),
                                /*forward_reassembled=*/true));
  net.insert_inline(r2, tid,
                    std::make_unique<core::Device>("tspu", policy));

  // The TSPU is really on the path (ground truth), yet the fragmentation
  // fingerprint cannot see it: the outer box reassembles 45 and 46
  // fragments alike into whole packets before they reach the TSPU.
  auto r = measure::probe_fragment_limit(net, *prober, target->addr(), 7547);
  EXPECT_TRUE(r.responded_intact);
  EXPECT_TRUE(r.responded_45);
  EXPECT_TRUE(r.responded_46);
  EXPECT_FALSE(r.tspu_like());  // false negative, exactly as §7.3 suspects
}

TEST(FragConfound, CiscoBoxBeforeTspuLooksUnresponsive) {
  using netsim::Host;
  using netsim::Router;
  using util::Ipv4Addr;
  using util::Ipv4Prefix;

  netsim::Network net;
  auto policy = std::make_shared<core::Policy>();
  auto prober_p = std::make_unique<Host>("prober", Ipv4Addr(9, 1, 0, 2));
  auto* prober = prober_p.get();
  auto target_p = std::make_unique<Host>("target", Ipv4Addr(45, 8, 0, 2));
  auto* target = target_p.get();
  target->listen(7547, netsim::TcpServerOptions{});
  const auto pid = net.add(std::move(prober_p));
  const auto r1 = net.add(std::make_unique<Router>("r1", Ipv4Addr(9, 1, 0, 1)));
  const auto r2 = net.add(std::make_unique<Router>("r2", Ipv4Addr(45, 8, 0, 1)));
  const auto tid = net.add(std::move(target_p));
  net.link(pid, r1);
  net.link(r1, r2);
  net.link(r2, tid);
  net.routes(pid).set_default(r1);
  net.routes(tid).set_default(r2);
  net.routes(r1).set_default(r2);
  net.routes(r1).add(Ipv4Prefix(prober->addr(), 32), pid);
  net.routes(r2).set_default(r1);
  net.routes(r2).add(Ipv4Prefix(target->addr(), 32), tid);

  net.insert_inline(r1, r2, std::make_unique<ispdpi::FragmentInspectingBox>(
                                "cisco-ish", ispdpi::cisco_like_reassembly(),
                                /*forward_reassembled=*/true));
  net.insert_inline(r2, tid,
                    std::make_unique<core::Device>("tspu", policy));

  auto r = measure::probe_fragment_limit(net, *prober, target->addr(), 7547);
  // The 24-fragment box kills both probes: classified unresponsive-to-
  // fragments, not TSPU-like — a disagreement cell, not a false positive.
  EXPECT_TRUE(r.responded_intact);
  EXPECT_FALSE(r.responded_45);
  EXPECT_FALSE(r.responded_46);
  EXPECT_FALSE(r.tspu_like());
}

}  // namespace
