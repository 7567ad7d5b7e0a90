// §5.3.2/§5.3.3 state-management experiments: TCP prefix sequences
// (Figure 4) and timeout estimation (Tables 2 & 8) against the ER-Telecom
// path (single symmetric device, so verdicts are pure device semantics).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "circumvent/strategies.h"
#include "measure/scan.h"
#include "measure/seq_explorer.h"
#include "measure/timeout_estimator.h"
#include "netsim/faults.h"
#include "obs/obs.h"
#include "topo/national.h"
#include "topo/scenario.h"
#include "tspu/budget.h"
#include "tspu/conntrack.h"
#include "tspu/device.h"
#include "tspu/frag_engine.h"
#include "tspu/timeouts.h"
#include "wire/fragment.h"

using namespace tspu;

namespace {

class StateManagement : public ::testing::Test {
 protected:
  StateManagement() : scenario([] {
    topo::ScenarioConfig cfg;
    cfg.corpus.scale = 0.01;
    cfg.perfect_devices = true;
    return cfg;
  }()) {}

  measure::SequenceResult run(std::vector<std::string> prefix,
                              const std::string& sni = "facebook.com") {
    auto& vp = scenario.vp("ER-Telecom");
    return measure::run_sequence(scenario.net(), *vp.host,
                                 scenario.us_raw_machine(), prefix, sni);
  }

  topo::Scenario scenario;
};

TEST_F(StateManagement, BareTriggerIsBlocked) {
  // Table 8 row "Lt": a naked ClientHello with no handshake still triggers.
  auto r = run({});
  EXPECT_EQ(r.verdict, measure::SequenceVerdict::kRstAck);
}

TEST_F(StateManagement, LocalSynPrefixBlocked) {
  auto r = run({"Ls"});
  EXPECT_EQ(r.verdict, measure::SequenceVerdict::kRstAck);
}

TEST_F(StateManagement, RemoteFirstSequencesPass) {
  // §5.3.2: "any sequence starting with a packet sent by the remote peer is
  // NOT a valid prefix to trigger the TSPU."
  for (auto prefix : std::vector<std::vector<std::string>>{
           {"Rs"}, {"Ra"}, {"Rsa"}, {"Rs", "Ls"}, {"Rs", "Lsa"},
           {"Rsa", "Lsa"}, {"Ra", "Lsa"}, {"Rs", "Ls", "Rsa"}}) {
    auto r = run(prefix);
    EXPECT_EQ(r.verdict, measure::SequenceVerdict::kPass)
        << measure::sequence_str(prefix);
  }
}

TEST_F(StateManagement, BareLocalSynAckIsValidBlockingPrefix) {
  // §7.1.1: "a single SYN/ACK is a valid prefix" — Table 8 "Lsa" = DROP.
  auto r = run({"Lsa"});
  EXPECT_EQ(r.verdict, measure::SequenceVerdict::kRstAck);
}

TEST_F(StateManagement, SplitHandshakeReversesRoles) {
  // Ls;Rs;Lsa — local answered a remote SYN with SYN/ACK: roles reverse,
  // SNI-I stops applying (the §8 server-side strategy).
  auto r = run({"Ls", "Rs", "Lsa"});
  EXPECT_EQ(r.verdict, measure::SequenceVerdict::kPass);
}

TEST_F(StateManagement, SimultaneousOpenWithoutSynAckStillBlocked) {
  // Ls;Rs without the local SYN/ACK does not flip roles (Table 8 "Ls;Rs;Lt"
  // is DROP).
  auto r = run({"Ls", "Rs"});
  EXPECT_EQ(r.verdict, measure::SequenceVerdict::kRstAck);
}

TEST_F(StateManagement, SniFourFiresWhenSniOneCannot) {
  // twitter.com carries the SNI-IV backup: on a role-reversed flow the CH
  // and everything else is dropped instead of RST/ACK'd (§5.3.2).
  auto r = run({"Ls", "Rs", "Lsa"}, "twitter.com");
  EXPECT_EQ(r.verdict, measure::SequenceVerdict::kFullDrop);
  EXPECT_FALSE(r.remote_got_clienthello);
}

TEST_F(StateManagement, SniFourNotTriggeredWhenSniOneActs) {
  // On a plain local-initiated flow, SNI-I handles twitter.com; RST/ACKs
  // must not be swallowed by SNI-IV ("only triggered when SNI-I fails").
  auto r = run({"Ls"}, "twitter.com");
  EXPECT_EQ(r.verdict, measure::SequenceVerdict::kRstAck);
}

TEST_F(StateManagement, ExplorerFindsGreenSequences) {
  auto& vp = scenario.vp("ER-Telecom");
  measure::ExplorerConfig cfg;
  cfg.max_len = 2;  // 1 + 6 + 36 sequences: fast
  cfg.trigger_sni = "facebook.com";
  auto results = measure::explore_sequences(scenario.net(), *vp.host,
                                            scenario.us_raw_machine(), cfg);
  ASSERT_EQ(results.size(), 1u + 6u + 36u);

  int passes = 0, blocks = 0;
  for (const auto& r : results) {
    // Invariant: every remote-first sequence passes.
    if (!r.prefix.empty() && r.prefix.front()[0] == 'R') {
      EXPECT_EQ(r.verdict, measure::SequenceVerdict::kPass)
          << measure::sequence_str(r.prefix);
    }
    (r.verdict == measure::SequenceVerdict::kPass ? passes : blocks)++;
  }
  EXPECT_GT(passes, 0);
  EXPECT_GT(blocks, 0);
}

// ---------------------------------------------------------------- timeouts

class Timeouts : public StateManagement {};

TEST_F(Timeouts, LocalSynSentTimeout) {
  // Local SYN, sleep, trigger: once the SYN-SENT entry evicts (60 s), the
  // trigger opens a FRESH local-initiated entry and is still blocked — so
  // the verdict never flips. Estimate via the REMOTE-side probe instead:
  // Rs;SLEEP;Lt flips at the remote_syn_sent timeout (30 s).
  measure::TimeoutProbe probe;
  probe.steps = {"Rs", "SLEEP", "Lt"};
  auto est = measure::estimate_timeout(scenario.net(),
                                       *scenario.vp("ER-Telecom").host,
                                       scenario.us_raw_machine(), probe);
  ASSERT_TRUE(est.seconds.has_value());
  EXPECT_FALSE(est.blocked_when_fresh);  // fresh remote-init state: exempt
  EXPECT_TRUE(est.blocked_when_stale);   // entry gone: bare Lt blocks
  EXPECT_NEAR(*est.seconds, 30, 1);
}

TEST_F(Timeouts, EstablishedTimeout) {
  // Remote-initiated established flow: exempt until the 480 s ESTABLISHED
  // timeout passes.
  measure::TimeoutProbe probe;
  probe.steps = {"Rs", "Lsa", "Ra", "SLEEP", "Lt"};
  auto est = measure::estimate_timeout(scenario.net(),
                                       *scenario.vp("ER-Telecom").host,
                                       scenario.us_raw_machine(), probe);
  ASSERT_TRUE(est.seconds.has_value());
  EXPECT_NEAR(*est.seconds, 480, 1);
}

TEST_F(Timeouts, RoleReversedTimeout) {
  measure::TimeoutProbe probe;
  probe.steps = {"Ls", "Rs", "Lsa", "SLEEP", "Lt"};
  auto est = measure::estimate_timeout(scenario.net(),
                                       *scenario.vp("ER-Telecom").host,
                                       scenario.us_raw_machine(), probe);
  ASSERT_TRUE(est.seconds.has_value());
  EXPECT_NEAR(*est.seconds, 180, 1);
}

TEST_F(Timeouts, SniOneResidualCensorship) {
  auto est = measure::estimate_block_residual(
      scenario.net(), *scenario.vp("ER-Telecom").host,
      scenario.us_raw_machine(), "facebook.com");
  ASSERT_TRUE(est.seconds.has_value());
  EXPECT_TRUE(est.blocked_when_fresh);
  EXPECT_FALSE(est.blocked_when_stale);
  EXPECT_NEAR(*est.seconds, 75, 2);
}

TEST_F(Timeouts, SniTwoResidualCensorship) {
  auto est = measure::estimate_block_residual(
      scenario.net(), *scenario.vp("ER-Telecom").host,
      scenario.us_raw_machine(), "nordvpn.com");
  ASSERT_TRUE(est.seconds.has_value());
  EXPECT_NEAR(*est.seconds, 420, 2);
}

// ------------------------------------------------------- state exhaustion

/// A distinct local-initiated flow per index, for filling tables to budget.
core::FlowKey flow_n(int i) {
  core::FlowKey k;
  k.local = util::Ipv4Addr(10, 0, 0, 1);
  k.remote = util::Ipv4Addr(93, 184, 216, 34);
  k.local_port = static_cast<std::uint16_t>(20000 + i);
  k.remote_port = 443;
  return k;
}

TEST(ConntrackBudget, EvictOldestKeepsTheNewestEntries) {
  core::TableBudget budget;
  budget.max_entries = 8;
  budget.policy = core::EvictionPolicy::kEvictOldest;
  core::ConnTracker ct({}, {}, /*strict_roles=*/false, budget);

  const util::Instant t0;
  for (int i = 0; i < 20; ++i) {
    // One admission per second: last_update strictly orders the entries.
    ASSERT_NE(ct.admit_tcp(flow_n(i), wire::kSyn, true,
                           t0 + util::Duration::seconds(i)),
              nullptr);
    EXPECT_LE(ct.size(), budget.max_entries);
  }
  // Exactly the 8 newest flows survive; each over-budget admission evicted
  // the single least-recently-updated entry.
  const util::Instant now = t0 + util::Duration::seconds(20);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(ct.find(flow_n(i), now), nullptr) << "flow " << i;
  }
  for (int i = 12; i < 20; ++i) {
    EXPECT_NE(ct.find(flow_n(i), now), nullptr) << "flow " << i;
  }
}

TEST(ConntrackBudget, EvictRandomIsSeedRepeatable) {
  auto survivors = [](std::uint64_t seed) {
    core::TableBudget budget;
    budget.max_entries = 8;
    budget.policy = core::EvictionPolicy::kEvictRandom;
    core::ConnTracker ct({}, {}, /*strict_roles=*/false, budget, {}, seed);
    const util::Instant t0;
    for (int i = 0; i < 24; ++i) {
      ct.admit_tcp(flow_n(i), wire::kSyn, true,
                   t0 + util::Duration::millis(i));
    }
    const util::Instant now = t0 + util::Duration::millis(24);
    std::vector<int> alive;
    for (int i = 0; i < 24; ++i) {
      if (ct.find(flow_n(i), now) != nullptr) alive.push_back(i);
    }
    return alive;
  };
  const auto a = survivors(42);
  EXPECT_EQ(a.size(), 8u);
  // Same seed, same victims — the per-device eviction stream is the only
  // randomness, so a replayed work item evicts identically.
  EXPECT_EQ(a, survivors(42));
  // A different stream picks a different victim set (fixed seeds, so this
  // comparison is deterministic, not flaky).
  EXPECT_NE(a, survivors(43));
}

TEST(ConntrackBudget, RejectNewRefusesAtCapacityAndRecoversOnExpiry) {
  core::TableBudget budget;
  budget.max_entries = 4;
  budget.policy = core::EvictionPolicy::kRejectNew;
  core::ConnTracker ct({}, {}, /*strict_roles=*/false, budget);

  const util::Instant t0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(ct.admit_tcp(flow_n(i), wire::kSyn, true, t0), nullptr);
  }
  // Full: the next admission is refused, existing entries keep working.
  EXPECT_EQ(ct.admit_tcp(flow_n(4), wire::kSyn, true, t0), nullptr);
  EXPECT_NE(ct.find(flow_n(0), t0), nullptr);
  // Once the SYN-SENT entries age out (60 s default), admission resumes.
  const util::Instant later = t0 + util::Duration::seconds(120);
  EXPECT_NE(ct.admit_tcp(flow_n(4), wire::kSyn, true, later), nullptr);
}

/// The first of the three fragments of datagram `id` (120 payload bytes
/// in 40-byte fragments): buffering it opens a queue that never completes.
wire::Packet first_fragment(std::uint16_t id) {
  wire::Packet pkt;
  pkt.ip.src = util::Ipv4Addr(10, 1, 2, 3);
  pkt.ip.dst = util::Ipv4Addr(93, 184, 216, 34);
  pkt.ip.id = id;
  pkt.payload.assign(120, 0x5c);
  return wire::fragment(pkt, 40).front();
}

/// Opens one queue per id, 1 ms apart, on an engine capped at `max_queues`,
/// and returns the ids whose queues survive, read off the frag.evict trace
/// events.
std::vector<int> frag_survivors(core::EvictionPolicy policy,
                                std::size_t max_queues,
                                const std::vector<int>& ids,
                                std::uint64_t seed = 0) {
  obs::TraceConfig tc;
  tc.enabled = true;
  obs::Recorder rec(tc);
  obs::RecorderScope scope(rec);
  core::TableBudget budget;
  budget.max_entries = max_queues;
  budget.policy = policy;
  core::FragmentEngine engine(core::FragmentTimeouts{}, budget, {}, seed);
  const util::Instant t0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    engine.push(first_fragment(static_cast<std::uint16_t>(ids[i])),
                t0 + util::Duration::millis(static_cast<std::int64_t>(i)));
  }
  EXPECT_EQ(engine.pending_queues(), budget.max_entries);
  std::set<int> alive(ids.begin(), ids.end());
  std::istringstream events(rec.trace.to_jsonl());
  for (std::string line; std::getline(events, line);) {
    if (line.find("\"frag.evict\"") == std::string::npos) continue;
    alive.erase(std::stoi(line.substr(line.find(" id=") + 4)));
  }
  return {alive.begin(), alive.end()};
}

TEST(FragBudget, EvictOldestEvictsTheQueueThatStartedFirst) {
  // Queues open in descending id order, so the first to start is the LAST
  // in key order: the victims are chosen by start time, not by key.
  EXPECT_EQ(frag_survivors(core::EvictionPolicy::kEvictOldest, 4,
                           {5, 4, 3, 2, 1, 0}),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(FragBudget, EvictRandomIsSeedRepeatable) {
  std::vector<int> ids(24);
  for (int i = 0; i < 24; ++i) ids[static_cast<std::size_t>(i)] = i;
  auto survivors = [&ids](std::uint64_t seed) {
    return frag_survivors(core::EvictionPolicy::kEvictRandom, 8, ids, seed);
  };
  const auto a = survivors(42);
  EXPECT_EQ(a.size(), 8u);
  // The eviction stream is the only randomness: one seed, one victim set;
  // another fixed seed, another set.
  EXPECT_EQ(a, survivors(42));
  EXPECT_NE(a, survivors(43));
}

TEST(OverloadHysteresis, EnterAndExitBoundaries) {
  obs::Recorder rec;
  obs::RecorderScope scope(rec);
  core::TableBudget budget;
  budget.max_entries = 100;
  core::OverloadPolicy policy;
  policy.enter_fraction = 0.9;
  policy.exit_fraction = 0.7;
  core::BudgetGuard guard(obs::Layer::kConntrack, budget, policy, 0);
  // Publishes `occupancy`; true when the latch flipped, which the guard
  // reports as exactly one overload.enter or overload.exit tick.
  std::uint64_t flips = 0;
  auto update = [&](std::size_t occupancy) {
    guard.publish(occupancy, util::Instant{});
    const std::uint64_t seen =
        rec.metrics.counter_value("tspu.conntrack.overload.enter") +
        rec.metrics.counter_value("tspu.conntrack.overload.exit");
    const bool flipped = seen != flips;
    flips = seen;
    return flipped;
  };

  EXPECT_FALSE(update(89));  // below high-water
  EXPECT_FALSE(guard.overloaded());
  EXPECT_TRUE(update(90));   // exactly high-water: latch
  EXPECT_TRUE(guard.overloaded());
  EXPECT_FALSE(update(80));  // inside the band: held
  EXPECT_TRUE(guard.overloaded());
  EXPECT_FALSE(update(71));  // still above low-water
  EXPECT_TRUE(guard.overloaded());
  EXPECT_TRUE(update(70));   // exactly low-water: release
  EXPECT_FALSE(guard.overloaded());
  // Re-entry produces exactly one more flip, not one per update.
  EXPECT_TRUE(update(95));
  EXPECT_FALSE(update(96));
  guard.reseed(0);
  EXPECT_FALSE(guard.overloaded());
  // Unbounded tables (max_entries == 0) never latch.
  core::BudgetGuard unbounded(obs::Layer::kConntrack, {}, policy, 0);
  unbounded.publish(1000, util::Instant{});
  EXPECT_FALSE(unbounded.overloaded());
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.overload.enter"), 2u);
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.overload.exit"), 1u);
}

/// Saturates the ER-Telecom device's RejectNew conntrack budget with a
/// half-open-churn flood (bare ACKs => 420 s kLocalOther entries, so the
/// table stays full for the whole probe) and runs one TLS exchange.
bool exchange_at_saturation(netsim::DeviceFailMode mode, const char* sni) {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.01;
  cfg.perfect_devices = true;
  cfg.conn_budget.max_entries = 32;
  cfg.conn_budget.policy = core::EvictionPolicy::kRejectNew;
  cfg.overload.mode = mode;
  netsim::FloodCampaign churn;
  churn.kind = netsim::FloodKind::kHalfOpenChurn;
  churn.duration = util::Duration::seconds(1);
  churn.packets_per_burst = 16;
  churn.burst_interval = util::Duration::millis(20);
  cfg.floods = {churn};

  topo::Scenario scenario(cfg);
  scenario.begin_trial(1);
  // Let the flood fill the table: admission control only affects flows that
  // START at saturation.
  scenario.net().sim().run_for(util::Duration::seconds(2));
  topo::VantagePoint& vp = scenario.vp("ER-Telecom");
  const bool ok = circumvent::tls_exchange_succeeds(
      scenario, vp, circumvent::Strategy::kBaseline, sni);
  // The probe's flow really was refused admission and hit the overload path.
  const core::DeviceStats& ds = vp.devices[0]->stats();
  EXPECT_GT(ds.overload_forwarded + ds.overload_dropped, 0u);
  return ok;
}

TEST(OverloadVerdicts, FailOpenForgesFalseAllows) {
  // Rejected flows are forwarded uninspected: the censored SNI leaks through
  // (false-allow) and the clean SNI works as usual.
  EXPECT_TRUE(exchange_at_saturation(netsim::DeviceFailMode::kFailOpen,
                                     "facebook.com"));
  EXPECT_TRUE(exchange_at_saturation(netsim::DeviceFailMode::kFailOpen,
                                     "example.com"));
}

TEST(OverloadVerdicts, FailClosedForgesFalseBlocks) {
  // Rejected flows are eaten: the clean SNI is unreachable (false-block) and
  // the censored one stays dark for the wrong reason.
  EXPECT_FALSE(exchange_at_saturation(netsim::DeviceFailMode::kFailClosed,
                                      "example.com"));
  EXPECT_FALSE(exchange_at_saturation(netsim::DeviceFailMode::kFailClosed,
                                      "facebook.com"));
}

TEST(OverloadVerdicts, UnboundedTableUnderFloodStaysCorrect) {
  // Same flood, no budget: the device inspects everything and the verdicts
  // are the true ones — the forgeries above are pure budget artifacts.
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.01;
  cfg.perfect_devices = true;
  netsim::FloodCampaign churn;
  churn.kind = netsim::FloodKind::kHalfOpenChurn;
  churn.duration = util::Duration::seconds(1);
  churn.packets_per_burst = 16;
  churn.burst_interval = util::Duration::millis(20);
  cfg.floods = {churn};
  topo::Scenario scenario(cfg);
  scenario.begin_trial(1);
  scenario.net().sim().run_for(util::Duration::seconds(2));
  topo::VantagePoint& vp = scenario.vp("ER-Telecom");
  EXPECT_FALSE(circumvent::tls_exchange_succeeds(
      scenario, vp, circumvent::Strategy::kBaseline, "facebook.com"));
  EXPECT_TRUE(circumvent::tls_exchange_succeeds(
      scenario, vp, circumvent::Strategy::kBaseline, "example.com"));
  EXPECT_EQ(vp.devices[0]->stats().overload_forwarded, 0u);
  EXPECT_EQ(vp.devices[0]->stats().overload_dropped, 0u);
}

TEST(ExhaustionDeterminism, FloodedScanIsJobCountInvariant) {
  // The obs-determinism contract under active floods and tight budgets:
  // flood packet schedules, eviction RNG draws, and overload transitions are
  // all re-derived per work item, so the sharded scan's metrics, trace, and
  // digest must stay byte-identical for any job count.
  auto run = [](int jobs) {
    obs::TraceConfig tc;
    tc.enabled = true;
    // Flood trials emit thousands of events per item; a tight (identical on
    // both runs, so still byte-comparable) cap keeps the retained trace small.
    tc.per_item_cap = 512;
    obs::Recorder rec(tc);
    obs::RecorderScope scope(rec);

    topo::NationalConfig cfg;
    cfg.endpoint_scale = 0.0002;
    cfg.n_ases = 40;
    cfg.conn_budget.max_entries = 4;
    cfg.conn_budget.policy = core::EvictionPolicy::kEvictOldest;
    cfg.frag_budget.max_entries = 2;
    cfg.frag_budget.policy = core::EvictionPolicy::kEvictOldest;
    netsim::FloodCampaign syn;
    syn.kind = netsim::FloodKind::kSynFlood;
    syn.duration = util::Duration::millis(500);
    syn.packets_per_burst = 8;
    syn.burst_interval = util::Duration::millis(50);
    netsim::FloodCampaign frag;
    frag.kind = netsim::FloodKind::kFragmentFlood;
    frag.duration = util::Duration::millis(500);
    frag.packets_per_burst = 4;
    frag.burst_interval = util::Duration::millis(50);
    cfg.floods = {syn, frag};

    measure::ParallelScanConfig scan;
    scan.fingerprint = true;
    // Enough endpoints to spread across 4 shards many times over; full
    // coverage is the soak test's job, this one checks the digest contract.
    scan.max_endpoints = 60;
    const measure::ParallelScanOutcome out =
        measure::parallel_scan(cfg, scan, jobs);
    return rec.metrics.to_json() + "\n" + rec.trace.to_jsonl() + "\n" +
           std::to_string(out.summary.endpoints_probed) + "/" +
           std::to_string(out.summary.tspu_positive);
  };
  const std::string one = run(1);
  // The floods really exercised the budget machinery, or the invariance
  // check is vacuous.
  ASSERT_NE(one.find("tspu.conntrack.evicted"), std::string::npos);
  ASSERT_NE(one.find("tspu.conntrack.occupancy"), std::string::npos);
  EXPECT_EQ(one, run(4));
}

// The ISSUE acceptance property: a retrying national scan under SYN +
// fragment floods against tightly budgeted (EvictOldest) devices (a)
// reconfirms >= 95% of the endpoints the clean scan called TSPU-positive,
// (b) degrades the rest to Inconclusive, and (c) never confidently
// contradicts the clean scan. EvictOldest sacrifices the flood's idle
// entries, not the probe's active flows, which is why bounded tables remain
// measurable; the RejectNew forgery cases are covered above.
TEST(ExhaustionSoak, FloodedScanConfirmsCleanPositives) {
  topo::NationalConfig clean_cfg;
  clean_cfg.endpoint_scale = 0.0005;
  clean_cfg.n_ases = 60;

  measure::ParallelScanConfig scan;
  scan.fingerprint = true;
  scan.localize = false;
  const measure::ParallelScanOutcome clean =
      measure::parallel_scan(clean_cfg, scan, 0);
  ASSERT_GT(clean.summary.tspu_positive, 0u);

  topo::NationalConfig flooded_cfg = clean_cfg;
  flooded_cfg.conn_budget.max_entries = 16;
  flooded_cfg.conn_budget.policy = core::EvictionPolicy::kEvictOldest;
  flooded_cfg.frag_budget.max_entries = 8;
  flooded_cfg.frag_budget.policy = core::EvictionPolicy::kEvictOldest;
  netsim::FloodCampaign syn;
  syn.kind = netsim::FloodKind::kSynFlood;
  syn.duration = util::Duration::millis(500);
  syn.packets_per_burst = 16;
  syn.burst_interval = util::Duration::millis(25);
  netsim::FloodCampaign frag;
  frag.kind = netsim::FloodKind::kFragmentFlood;
  frag.duration = util::Duration::millis(500);
  frag.packets_per_burst = 8;
  frag.burst_interval = util::Duration::millis(25);
  flooded_cfg.floods = {syn, frag};

  measure::ParallelScanConfig retry_scan = scan;
  retry_scan.retry = true;
  retry_scan.retry_policy.contradiction_inconclusive = true;
  const measure::ParallelScanOutcome flooded =
      measure::parallel_scan(flooded_cfg, retry_scan, 0);

  ASSERT_EQ(clean.records.size(), flooded.records.size());
  std::size_t clean_positive = 0, reconfirmed = 0, degraded = 0;
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    const measure::ScanRecord& c = clean.records[i];
    const measure::ScanRecord& f = flooded.records[i];
    ASSERT_EQ(c.endpoint_index, f.endpoint_index);
    ASSERT_TRUE(f.retried);

    // (c) a CONFIRMED flooded verdict must agree with the clean fingerprint.
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
      // (b) the remainder degrades to Inconclusive, never Unreachable.
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
  EXPECT_EQ(flooded.summary.confirmed + flooded.summary.inconclusive +
                flooded.summary.unreachable,
            flooded.records.size());
}

}  // namespace
