// Fault-injection subsystem (netsim/faults.h) and retry/confidence layer
// (measure/retry.h): Gilbert-Elliott burst statistics against the closed
// forms, link flap delivery invariants (including the mid-flight case),
// duplication/corruption accounting, TSPU device fail-open/fail-closed/
// reboot semantics observed through §4-style flag-sequence probes, the
// verdict table of the retry aggregator, and the headline acceptance
// property: a faulted national scan confirms (almost) everything the clean
// scan found and never confidently contradicts it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "measure/behavior.h"
#include "measure/common.h"
#include "measure/rawflow.h"
#include "measure/retry.h"
#include "measure/scan.h"
#include "netsim/faults.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "topo/national.h"
#include "topo/scenario.h"
#include "util/bytes.h"

namespace tspu {
namespace {

using netsim::DeviceFailMode;
using netsim::DeviceFaultPlan;
using netsim::FlapWindow;
using netsim::GilbertElliott;
using netsim::LinkFaultPlan;
using util::Duration;

// ---------------------------------------------------------------- closed forms

TEST(GilbertElliottMath, ClosedForms) {
  GilbertElliott ge;
  ge.p_enter_bad = 0.01;
  ge.p_exit_bad = 0.25;
  EXPECT_NEAR(ge.stationary_bad(), 0.01 / 0.26, 1e-12);
  EXPECT_NEAR(ge.mean_loss(), ge.stationary_bad(), 1e-12);  // loss_bad = 1
  EXPECT_NEAR(ge.mean_burst_length(), 4.0, 1e-12);
}

TEST(GilbertElliottMath, BurstyFactoryHitsTargets) {
  const GilbertElliott ge = GilbertElliott::bursty(0.02, 8.0);
  EXPECT_NEAR(ge.mean_loss(), 0.02, 1e-12);
  EXPECT_NEAR(ge.mean_burst_length(), 8.0, 1e-12);
  EXPECT_TRUE(ge.enabled());
  EXPECT_FALSE(GilbertElliott{}.enabled());
  EXPECT_THROW(GilbertElliott::bursty(1.0, 8.0), std::invalid_argument);
  EXPECT_THROW(GilbertElliott::bursty(0.02, 0.5), std::invalid_argument);
}

// ------------------------------------------------------------ two-host fixture

// A single A--B link carrying one crafted UDP packet per trial: the smallest
// world in which every link fault is observable.
class LinkFaults : public ::testing::Test {
 protected:
  LinkFaults() {
    auto ha = std::make_unique<netsim::Host>("a", util::Ipv4Addr(10, 0, 0, 1));
    auto hb = std::make_unique<netsim::Host>("b", util::Ipv4Addr(10, 0, 0, 2));
    a_ = ha.get();
    b_ = hb.get();
    ia_ = net_.add(std::move(ha));
    ib_ = net_.add(std::move(hb));
    net_.link(ia_, ib_);
    net_.routes(ia_).set_default(ib_);
    net_.routes(ib_).set_default(ia_);
  }

  void install(const LinkFaultPlan& plan, std::uint64_t seed = 0xfa15) {
    net_.set_default_link_faults(plan);
    net_.reseed_fault_rngs(seed);
  }

  /// Sends one small UDP packet a->b and reports whether it arrived.
  bool send_one(const std::string& payload = "x") {
    const std::size_t before = b_->captured().size();
    a_->send_udp(b_->addr(), 4000, 80, util::to_bytes(payload));
    net_.sim().run_until_idle();
    return b_->captured().size() > before;
  }

  netsim::Network net_;
  netsim::Host* a_ = nullptr;
  netsim::Host* b_ = nullptr;
  netsim::NodeId ia_ = 0;
  netsim::NodeId ib_ = 0;
};

TEST_F(LinkFaults, BurstLossMatchesClosedFormEmpirically) {
  LinkFaultPlan plan;
  plan.burst = GilbertElliott::bursty(0.05, 5.0);
  install(plan);

  // Per-packet delivery trace: loss bursts are runs of consecutive drops.
  const int n = 4000;
  int lost = 0, bursts = 0, run = 0;
  std::vector<int> burst_lengths;
  for (int i = 0; i < n; ++i) {
    if (send_one()) {
      if (run > 0) burst_lengths.push_back(run);
      run = 0;
    } else {
      ++lost;
      ++run;
      if (run == 1) ++bursts;
    }
  }
  if (run > 0) burst_lengths.push_back(run);

  const double loss_rate = static_cast<double>(lost) / n;
  EXPECT_NEAR(loss_rate, plan.burst.mean_loss(), 0.025);

  ASSERT_GT(burst_lengths.size(), 10u);
  double mean_burst = 0;
  for (int len : burst_lengths) mean_burst += len;
  mean_burst /= static_cast<double>(burst_lengths.size());
  EXPECT_NEAR(mean_burst, plan.burst.mean_burst_length(), 2.0);

  EXPECT_EQ(net_.fault_stats().dropped_burst, static_cast<std::uint64_t>(lost));
}

TEST_F(LinkFaults, TimeClockedBurstIsAllOrNothingWithinAnInstant) {
  LinkFaultPlan plan;
  plan.burst = GilbertElliott::bursty(0.2, 4.0);
  plan.burst.relax_steps_per_second = 1000.0;  // chain evolves on the clock
  install(plan);

  // Send same-instant batches separated by long idle gaps. Time clocking
  // means every packet of a batch samples ONE outage state: the batch is
  // lost whole or delivered whole, and across well-separated batches the
  // loss rate converges to the stationary 20% instead of the near-certain
  // kill a packet-clocked 16-step batch would suffer.
  const int batches = 800, k = 16;
  int lost_batches = 0, partial = 0;
  for (int i = 0; i < batches; ++i) {
    const std::size_t before = b_->captured().size();
    for (int j = 0; j < k; ++j) {
      a_->send_udp(b_->addr(), 4000, 80, util::to_bytes("x"));
    }
    net_.sim().run_until_idle();
    const std::size_t got = b_->captured().size() - before;
    if (got == 0) ++lost_batches;
    else if (got != static_cast<std::size_t>(k)) ++partial;
    // ~100 virtual steps >> mean burst of 4: batches are independent.
    net_.sim().run_for(Duration::millis(100));
  }
  EXPECT_EQ(partial, 0);
  EXPECT_NEAR(static_cast<double>(lost_batches) / batches,
              plan.burst.mean_loss(), 0.05);
}

TEST_F(LinkFaults, IidLossRateMatchesKnob) {
  LinkFaultPlan plan;
  plan.iid_loss = 0.1;
  install(plan);
  int lost = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) lost += send_one() ? 0 : 1;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.1, 0.03);
  EXPECT_EQ(net_.fault_stats().dropped_iid, static_cast<std::uint64_t>(lost));
}

TEST_F(LinkFaults, FlapWindowDeliveryInvariants) {
  LinkFaultPlan plan;
  plan.flaps = {{Duration::millis(2), Duration::millis(10)}};
  install(plan);

  // Before the window: delivered (send at epoch+0, arrival epoch+1ms < 2ms).
  EXPECT_TRUE(send_one());

  // Inside the window: eaten at send time.
  net_.sim().run_for(Duration::millis(4));  // now epoch+~5ms
  const auto dropped_before = net_.fault_stats().dropped_down;
  EXPECT_FALSE(send_one());
  EXPECT_GT(net_.fault_stats().dropped_down, dropped_before);

  // After the window: delivered again.
  net_.sim().run_for(Duration::millis(10));
  EXPECT_TRUE(send_one());
}

TEST_F(LinkFaults, PacketInFlightWhenLinkGoesDownIsLost) {
  // Link delay is 1 ms. Send at epoch+1.5ms while the link is still up; the
  // delivery instant (epoch+2.5ms) falls inside [2ms, 10ms), so the packet
  // must NOT tunnel through the outage (delivery-time re-check +
  // TSPU_AUDIT).
  LinkFaultPlan plan;
  plan.flaps = {{Duration::millis(2), Duration::millis(10)}};
  install(plan);

  net_.sim().run_for(Duration::micros(1500));
  ASSERT_FALSE(net_.links_down());  // up at send time
  EXPECT_FALSE(send_one());
  EXPECT_EQ(net_.fault_stats().dropped_down, 1u);
}

TEST_F(LinkFaults, DuplicationDeliversTwoIndependentCopies) {
  LinkFaultPlan plan;
  plan.duplicate_prob = 1.0;
  install(plan);
  const int n = 50;
  for (int i = 0; i < n; ++i) send_one();
  EXPECT_EQ(b_->captured().size(), static_cast<std::size_t>(2 * n));
  EXPECT_EQ(net_.fault_stats().duplicated, static_cast<std::uint64_t>(n));
}

TEST_F(LinkFaults, CorruptionFlipsExactlyOneByte) {
  LinkFaultPlan plan;
  plan.corrupt_prob = 1.0;
  install(plan);
  ASSERT_TRUE(send_one("hello-fault-layer"));
  const wire::Packet got = b_->captured().back().pkt;  // copy: next send may
                                                       // grow captured()
  ASSERT_FALSE(got.payload.empty());
  EXPECT_EQ(net_.fault_stats().corrupted, 1u);

  // Re-send the same datagram with faults cleared and diff the L4 payloads:
  // exactly one byte must differ, and by xor 0xff.
  install(LinkFaultPlan{});
  ASSERT_TRUE(send_one("hello-fault-layer"));
  const wire::Packet& clean = b_->captured().back().pkt;
  ASSERT_EQ(clean.payload.size(), got.payload.size());
  int flipped = 0;
  for (std::size_t i = 0; i < clean.payload.size(); ++i) {
    if (clean.payload[i] != got.payload[i]) {
      EXPECT_EQ(static_cast<std::uint8_t>(clean.payload[i] ^ 0xff),
                got.payload[i]);
      ++flipped;
    }
  }
  EXPECT_EQ(flipped, 1);
}

TEST_F(LinkFaults, ReorderAndJitterStillDeliver) {
  LinkFaultPlan plan;
  plan.reorder_prob = 0.5;
  plan.jitter_max = Duration::millis(2);
  install(plan);
  const int n = 200;
  int delivered = 0;
  for (int i = 0; i < n; ++i) delivered += send_one() ? 1 : 0;
  EXPECT_EQ(delivered, n);  // neither reorder nor jitter may lose packets
  EXPECT_GT(net_.fault_stats().reordered, 0u);
}

TEST_F(LinkFaults, ReseedRestartsTheFaultSchedule) {
  LinkFaultPlan plan;
  plan.burst = GilbertElliott::bursty(0.2, 4.0);
  install(plan, 1);

  auto trace = [&] {
    std::vector<bool> t;
    for (int i = 0; i < 200; ++i) t.push_back(send_one());
    return t;
  };
  const std::vector<bool> first = trace();
  net_.reseed_fault_rngs(1);  // same root -> same per-link stream
  const std::vector<bool> again = trace();
  EXPECT_EQ(first, again);
  net_.reseed_fault_rngs(2);  // different root -> different schedule
  EXPECT_NE(trace(), first);
}

// ------------------------------------------------------------- device faults

topo::ScenarioConfig scenario_config(DeviceFaultPlan faults = {}) {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.01;
  cfg.perfect_devices = true;
  cfg.device_faults = std::move(faults);
  return cfg;
}

TEST(DeviceFaults, FailOpenForwardsTriggersUninspected) {
  DeviceFaultPlan plan;
  plan.flap_mode = DeviceFailMode::kFailOpen;
  plan.flaps = {{Duration::millis(0), Duration::seconds(60)}};
  plan.reboot_on_recovery = false;
  topo::Scenario scenario(scenario_config(plan));
  scenario.begin_trial(7);

  auto& vp = scenario.vp("ER-Telecom");
  const auto r = measure::test_sni(scenario.net(), *vp.host,
                                   scenario.us_machine(0).addr(),
                                   "facebook.com", measure::ClassifyDepth::kQuick);
  EXPECT_EQ(r.outcome, measure::SniOutcome::kOk);  // censorship vanished
  EXPECT_GT(vp.devices[0]->stats().fault_forwarded, 0u);
  EXPECT_EQ(vp.devices[0]->stats().fault_dropped, 0u);
}

TEST(DeviceFaults, FailClosedKillsThePath) {
  DeviceFaultPlan plan;
  plan.flap_mode = DeviceFailMode::kFailClosed;
  plan.flaps = {{Duration::millis(0), Duration::seconds(60)}};
  topo::Scenario scenario(scenario_config(plan));
  scenario.begin_trial(7);

  auto& vp = scenario.vp("ER-Telecom");
  const auto r = measure::test_sni(scenario.net(), *vp.host,
                                   scenario.us_machine(0).addr(),
                                   "example.com", measure::ClassifyDepth::kQuick);
  EXPECT_EQ(r.outcome, measure::SniOutcome::kNoConnection);
  EXPECT_GT(vp.devices[0]->stats().fault_dropped, 0u);
}

TEST(DeviceFaults, CensorshipResumesAfterFlapWindow) {
  DeviceFaultPlan plan;
  plan.flap_mode = DeviceFailMode::kFailOpen;
  plan.flaps = {{Duration::millis(0), Duration::millis(50)}};
  topo::Scenario scenario(scenario_config(plan));
  scenario.begin_trial(7);

  scenario.net().sim().run_for(Duration::millis(60));  // past the window
  auto& vp = scenario.vp("ER-Telecom");
  const auto r = measure::test_sni(scenario.net(), *vp.host,
                                   scenario.us_machine(0).addr(),
                                   "facebook.com", measure::ClassifyDepth::kQuick);
  EXPECT_EQ(r.outcome, measure::SniOutcome::kRstAck);
}

TEST(DeviceFaults, RebootWipesConntrackMidFlow) {
  // §5.3.2: a remote-first prefix ("Rs") exempts later triggers. A mid-flow
  // reboot wipes the conntrack entry, so the same trigger that passed on a
  // healthy device is RST/ACK'd after the reboot — the observable the §4
  // flag-sequence probes detect.
  const std::string sni = "facebook.com";

  // Control: no faults; Rs, 2 s sleep (far below the 30 s remote_syn_sent
  // timeout), trigger -> exempt.
  {
    topo::Scenario scenario(scenario_config());
    scenario.begin_trial(11);
    measure::RawFlow flow(scenario.net(), *scenario.vp("ER-Telecom").host,
                          scenario.us_raw_machine(), measure::fresh_port());
    flow.play("Rs", sni);
    flow.sleep(Duration::seconds(2));
    flow.play("Lt", sni);
    flow.settle();
    // SNI-I only rewrites DOWNSTREAM packets (§7.1.1), so the verdict needs
    // a remote answer to become observable — same probe seq_explorer uses.
    flow.remote_send(wire::kPshAck, util::to_bytes("verdict-response"));
    flow.settle();
    EXPECT_FALSE(flow.local_saw_rst_ack());
  }

  // Faulted: identical sequence, but the device reboots 1 s into the trial.
  {
    DeviceFaultPlan plan;
    plan.reboots = {Duration::seconds(1)};
    topo::Scenario scenario(scenario_config(plan));
    scenario.begin_trial(11);
    auto& vp = scenario.vp("ER-Telecom");
    measure::RawFlow flow(scenario.net(), *vp.host,
                          scenario.us_raw_machine(), measure::fresh_port());
    flow.play("Rs", sni);
    flow.sleep(Duration::seconds(2));  // crosses the reboot instant
    flow.play("Lt", sni);
    flow.settle();
    flow.remote_send(wire::kPshAck, util::to_bytes("verdict-response"));
    flow.settle();
    EXPECT_TRUE(flow.local_saw_rst_ack());  // exemption gone: state wiped
    EXPECT_EQ(vp.devices[0]->stats().fault_reboots, 1u);
  }
}

// ------------------------------------------------------------- verdict table

std::vector<std::optional<bool>> outcomes(const std::string& s) {
  std::vector<std::optional<bool>> v;
  for (char c : s) {
    if (c == '+') v.push_back(true);
    else if (c == '-') v.push_back(false);
    else v.push_back(std::nullopt);
  }
  return v;
}

TEST(RetryVerdicts, AggregationTable) {
  using measure::Verdict;
  measure::RetryPolicy p;  // max 5, min_agree 3

  struct Row {
    const char* seq;
    Verdict verdict;
    bool observation;
    int attempts;
  };
  const Row rows[] = {
      {"+++", Verdict::kConfirmed, true, 3},     // early stop at agreement
      {"---", Verdict::kConfirmed, false, 3},
      {"+-+-+", Verdict::kConfirmed, true, 5},   // majority on the last try
      {"+-+-", Verdict::kInconclusive, false, 4},
      {"??+?+", Verdict::kInconclusive, false, 5},  // losses eat the budget
      {"?????", Verdict::kUnreachable, false, 5},
      {"?\?---", Verdict::kConfirmed, false, 5},  // retries absorb 2 losses
  };
  for (const Row& r : rows) {
    measure::RetryPolicy pol = p;
    pol.max_attempts = static_cast<int>(std::string(r.seq).size());
    const auto pv = measure::aggregate_attempts(pol, outcomes(r.seq));
    EXPECT_EQ(pv.verdict, r.verdict) << r.seq;
    if (pv.verdict == Verdict::kConfirmed) {
      EXPECT_EQ(pv.observation, r.observation) << r.seq;
    }
    EXPECT_EQ(pv.attempts, r.attempts) << r.seq;
  }
}

TEST(RetryVerdicts, PositiveConclusiveShortCircuits) {
  measure::RetryPolicy p;
  p.positive_conclusive = true;
  const auto pv = measure::aggregate_attempts(p, outcomes("??+"));
  EXPECT_TRUE(pv.confirmed_true());
  EXPECT_EQ(pv.attempts, 3);
  // A late positive still wins: negatives never stop a presence probe
  // early, because burst loss correlates consecutive silences.
  const auto late = measure::aggregate_attempts(p, outcomes("---?+"));
  EXPECT_TRUE(late.confirmed_true());
  EXPECT_EQ(late.attempts, 5);
  // Silence is forgeable; it only hardens when the WHOLE budget was silent.
  const auto neg = measure::aggregate_attempts(p, outcomes("-----"));
  EXPECT_TRUE(neg.confirmed_false());
  const auto partial = measure::aggregate_attempts(p, outcomes("---?-"));
  EXPECT_EQ(partial.verdict, measure::Verdict::kInconclusive);
}

TEST(GilbertElliottMath, IdleRelaxationClosedForm) {
  const GilbertElliott ge = GilbertElliott::bursty(0.02, 8.0);
  // No elapsed steps: the state is unchanged.
  EXPECT_NEAR(ge.p_bad_after(true, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(ge.p_bad_after(false, 0.0), 0.0, 1e-12);
  // One step matches the single-step transition probabilities.
  EXPECT_NEAR(ge.p_bad_after(true, 1.0), 1.0 - ge.p_exit_bad, 1e-12);
  EXPECT_NEAR(ge.p_bad_after(false, 1.0), ge.p_enter_bad, 1e-12);
  // Long idle converges to the stationary distribution from both sides.
  EXPECT_NEAR(ge.p_bad_after(true, 1e6), ge.stationary_bad(), 1e-9);
  EXPECT_NEAR(ge.p_bad_after(false, 1e6), ge.stationary_bad(), 1e-9);
  // Monotone decay in between.
  EXPECT_GT(ge.p_bad_after(true, 5.0), ge.p_bad_after(true, 50.0));
  EXPECT_LT(ge.p_bad_after(false, 5.0), ge.p_bad_after(false, 50.0));
}

TEST(RetryVerdicts, BackoffIsSpentOnTheSimClock) {
  netsim::Network net;
  measure::RetryPolicy p;  // 200 ms, factor 2: gaps 200+400+800+1600 ms
  int calls = 0;
  const util::Instant before = net.now();
  const auto pv = measure::run_with_retry(net, p, [&]() {
    ++calls;
    return std::optional<bool>();
  });
  EXPECT_EQ(pv.verdict, measure::Verdict::kUnreachable);
  EXPECT_EQ(calls, 5);
  const auto elapsed = net.now() - before;
  EXPECT_EQ(elapsed.as_micros(), Duration::millis(3000).as_micros());
}

// ----------------------------------------------------- graceful degradation

// The ISSUE acceptance property: under 2% bursty loss plus a fail-closed
// device flap in every trial, a retrying national scan (a) confirms >= 95%
// of the endpoints the clean scan called TSPU-positive, (b) degrades the
// rest to Inconclusive, and (c) NEVER confidently contradicts the clean
// scan in either direction.
TEST(GracefulDegradation, FaultedScanConfirmsCleanPositives) {
  topo::NationalConfig clean_cfg;
  clean_cfg.endpoint_scale = 0.0005;
  clean_cfg.n_ases = 60;

  measure::ParallelScanConfig scan;
  scan.fingerprint = true;
  scan.localize = false;
  const measure::ParallelScanOutcome clean =
      measure::parallel_scan(clean_cfg, scan, 0);
  ASSERT_GT(clean.summary.tspu_positive, 0u);

  topo::NationalConfig faulted_cfg = clean_cfg;
  faulted_cfg.link_faults.burst = GilbertElliott::bursty(0.02, 8.0);
  // Outages end on the wall clock, not per packet: without this, a chain
  // stuck bad would freeze across retry backoffs and correlate attempts.
  faulted_cfg.link_faults.burst.relax_steps_per_second = 1000.0;
  faulted_cfg.device_faults.flap_mode = DeviceFailMode::kFailClosed;
  faulted_cfg.device_faults.flaps = {{Duration::millis(2),
                                      Duration::millis(30)}};
  faulted_cfg.device_faults.reboot_on_recovery = false;

  measure::ParallelScanConfig retry_scan = scan;
  retry_scan.retry = true;
  const measure::ParallelScanOutcome faulted =
      measure::parallel_scan(faulted_cfg, retry_scan, 0);

  ASSERT_EQ(clean.records.size(), faulted.records.size());
  std::size_t clean_positive = 0, reconfirmed = 0, degraded = 0;
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    const measure::ScanRecord& c = clean.records[i];
    const measure::ScanRecord& f = faulted.records[i];
    ASSERT_EQ(c.endpoint_index, f.endpoint_index);
    ASSERT_TRUE(f.retried);

    // (c) zero contradictory flips: a CONFIRMED faulted verdict must agree
    // with the clean fingerprint, both directions.
    if (f.verdict == measure::Verdict::kConfirmed) {
      EXPECT_EQ(f.verdict_tspu, c.tspu_like())
          << "endpoint " << c.endpoint_index
          << " confirmed a verdict contradicting the clean scan";
    }
    if (!c.tspu_like()) continue;
    ++clean_positive;
    if (f.verdict == measure::Verdict::kConfirmed && f.verdict_tspu) {
      ++reconfirmed;
    } else {
      // (b) the remainder degrades to Inconclusive, never to a confident
      // "no TSPU here".
      EXPECT_NE(f.verdict, measure::Verdict::kUnreachable)
          << "endpoint " << c.endpoint_index;
      ++degraded;
    }
  }
  ASSERT_GT(clean_positive, 0u);
  // (a) >= 95% of clean positives survive as Confirmed.
  EXPECT_GE(static_cast<double>(reconfirmed),
            0.95 * static_cast<double>(clean_positive))
      << reconfirmed << " of " << clean_positive << " reconfirmed, "
      << degraded << " degraded";
  // The summary's verdict breakdown matches the per-record census.
  EXPECT_EQ(faulted.summary.confirmed + faulted.summary.inconclusive +
                faulted.summary.unreachable,
            faulted.records.size());
}

}  // namespace
}  // namespace tspu
