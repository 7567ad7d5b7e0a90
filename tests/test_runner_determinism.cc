// Tier-1 guard for the shard runner's central promise: a sharded
// measurement produces byte-identical results for every job count. Runs a
// scaled-down Figure-9 scan and a Figure-6-style domain sweep at jobs=1 and
// jobs=4 and compares digests of the full serialized outcome — any
// divergence (scheduling leak, shared RNG draw, residual per-shard state)
// fails loudly here instead of silently skewing a paper figure. The
// ScheduleIsolation tests check the contract underneath: on one replica, an
// item's output does not depend on which items ran before it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "circumvent/strategies.h"
#include "ispdpi/resolver.h"
#include "measure/common.h"
#include "measure/domain_tester.h"
#include "measure/scan.h"
#include "netsim/faults.h"
#include "obs/obs.h"
#include "runner/runner.h"
#include "topo/national.h"
#include "topo/scenario.h"
#include "util/rng.h"

namespace tspu {
namespace {

// FNV-1a over a string — cheap, dependency-free digest for equality checks.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string serialize(const measure::ParallelScanOutcome& o) {
  std::ostringstream out;
  for (const measure::ScanRecord& r : o.records) {
    out << r.endpoint_index << '|' << r.addr.value() << ':' << r.port << '|'
        << r.as_index << '|' << r.fingerprinted << '|';
    if (r.fingerprinted) {
      out << r.fingerprint.responded_45 << r.fingerprint.responded_46;
    }
    out << '|';
    if (r.location) {
      out << r.location->min_working_ttl.value_or(-1) << ','
          << r.location->device_hops_from_destination.value_or(-1);
    }
    out << '|';
    if (r.tspu_link) out << r.tspu_link->first << ',' << r.tspu_link->second;
    out << '\n';
  }
  out << "summary:" << o.summary.endpoints_probed << '/'
      << o.summary.tspu_positive << '/' << o.summary.ases_positive.size();
  return out.str();
}

measure::ParallelScanOutcome run_scan(int jobs) {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = 0.0005;
  cfg.n_ases = 60;
  measure::ParallelScanConfig scan;
  scan.fingerprint = true;
  scan.localize = true;
  scan.trace_links = true;
  return measure::parallel_scan(cfg, scan, jobs);
}

TEST(RunnerDeterminism, NationalScanIsJobCountInvariant) {
  const std::string one = serialize(run_scan(1));
  const std::string four = serialize(run_scan(4));
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(fnv1a(one), fnv1a(four));
  // The digest is the headline; on mismatch the full strings pin down the
  // first diverging record.
  EXPECT_EQ(one, four);
}

// The fault layer's own determinism contract: per-link fault streams are
// seeded statelessly from the trial root, flap windows anchor to the trial
// epoch, and the retry layer's schedule depends only on probe outcomes —
// so even a scan whose every packet rolls loss/jitter/flap dice, with a
// mid-trial fail-closed device flap on top, must shard byte-identically.
measure::ParallelScanOutcome run_faulted_scan(int jobs) {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = 0.0005;
  cfg.n_ases = 60;
  cfg.link_faults.burst = netsim::GilbertElliott::bursty(0.02, 8.0);
  cfg.link_faults.burst.relax_steps_per_second = 1000.0;
  cfg.link_faults.jitter_max = util::Duration::micros(300);
  cfg.device_faults.flap_mode = netsim::DeviceFailMode::kFailClosed;
  cfg.device_faults.flaps = {
      {util::Duration::millis(2), util::Duration::millis(30)}};
  cfg.device_faults.reboot_on_recovery = false;
  measure::ParallelScanConfig scan;
  scan.fingerprint = true;
  scan.localize = false;
  scan.retry = true;
  return measure::parallel_scan(cfg, scan, jobs);
}

std::string serialize_verdicts(const measure::ParallelScanOutcome& o) {
  std::ostringstream out;
  out << serialize(o);
  // The retry layer's outputs must shard identically too, not just the raw
  // fingerprints: verdict, polarity, and the attempt count all reflect the
  // exact per-attempt outcome sequence.
  for (const measure::ScanRecord& r : o.records) {
    out << r.endpoint_index << ':' << static_cast<int>(r.verdict) << ','
        << r.verdict_tspu << ',' << r.attempts << '\n';
  }
  out << "verdicts:" << o.summary.confirmed << '/' << o.summary.inconclusive
      << '/' << o.summary.unreachable;
  return out.str();
}

TEST(RunnerDeterminism, FaultedRetryScanIsJobCountInvariant) {
  const std::string one = serialize_verdicts(run_faulted_scan(1));
  const std::string four = serialize_verdicts(run_faulted_scan(4));
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(fnv1a(one), fnv1a(four));
  EXPECT_EQ(one, four);
}

std::string run_domain_sweep(int jobs) {
  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = 0.05;

  topo::Scenario scout(cfg);
  const std::size_t n = scout.corpus().domains().size();

  measure::DomainTestConfig tc;
  tc.depth = measure::ClassifyDepth::kStandard;
  tc.probe_sni_iv = true;

  struct Ctx {
    std::unique_ptr<topo::Scenario> scenario;
    std::unique_ptr<measure::DomainTester> tester;
  };
  auto verdicts = runner::shard_map(
      n, jobs,
      [&cfg](int) {
        Ctx ctx;
        ctx.scenario = std::make_unique<topo::Scenario>(cfg);
        ctx.tester = std::make_unique<measure::DomainTester>(*ctx.scenario);
        return ctx;
      },
      [&tc](Ctx& ctx, std::size_t i) {
        ctx.scenario->begin_trial(runner::item_seed(0xd0d0, i));
        return ctx.tester->test_domain(ctx.scenario->corpus().domains()[i],
                                       tc);
      });

  std::ostringstream out;
  for (const measure::DomainVerdict& v : verdicts) {
    out << v.domain << '=';
    for (measure::SniOutcome o : v.tspu) out << static_cast<int>(o) << ',';
    for (bool b : v.isp_blockpage) out << b;
    out << '\n';
  }
  return out.str();
}

TEST(RunnerDeterminism, DomainSweepIsJobCountInvariant) {
  const std::string one = run_domain_sweep(1);
  const std::string four = run_domain_sweep(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(fnv1a(one), fnv1a(four));
  EXPECT_EQ(one, four);
}

// Resolver-heavy sweep: every item issues a raw DNS query through
// ispdpi::send_dns_query and the digest includes the *transaction ID* each
// query used. The ID counter is per-worker state — before it was
// thread_local and reset in begin_trial, a shard's IDs encoded how many
// queries its previous items had sent, so jobs=1 and jobs=4 disagreed on
// every record. This pins the fix (and tspulint's shard-escape rule guards
// the pattern statically).
std::string run_resolver_sweep(int jobs) {
  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = 0.05;

  topo::Scenario scout(cfg);
  const std::size_t n = scout.corpus().domains().size();

  auto rows = runner::shard_map(
      n, jobs,
      [&cfg](int) { return std::make_unique<topo::Scenario>(cfg); },
      [](std::unique_ptr<topo::Scenario>& sc, std::size_t i) {
        sc->begin_trial(runner::item_seed(0xd15, i));
        const std::string& domain = sc->corpus().domains()[i].name;
        topo::VantagePoint& vp = sc->vantage_points().front();
        const std::uint16_t qid = ispdpi::send_dns_query(
            *vp.host, vp.resolver, domain, measure::fresh_port());
        sc->net().sim().run_until_idle();
        const auto answer = ispdpi::read_dns_answer(*vp.host, qid);
        std::ostringstream row;
        row << domain << '#' << qid << '=';
        if (answer) row << answer->value();
        return row.str();
      });

  std::ostringstream out;
  for (const std::string& row : rows) out << row << '\n';
  return out.str();
}

TEST(RunnerDeterminism, ResolverSweepQueryIdsAreJobCountInvariant) {
  const std::string one = run_resolver_sweep(1);
  const std::string four = run_resolver_sweep(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(fnv1a(one), fnv1a(four));
  EXPECT_EQ(one, four);
}

// ------------------------------------------------- schedule permutation
//
// jobs=1 against jobs=4 compares two fixed partitions of the items. The
// stronger form of the isolation contract: n items run in index order on
// one replica, then in a seeded shuffled order on a fresh replica, must
// agree on every result and on the recorder's metrics JSON and trace JSONL.
// Each item runs the way the shard runner runs it (begin_item, begin_trial,
// the item), so any difference is state that begin_trial failed to reset.

struct ScheduleRun {
  std::vector<std::string> results;  ///< by item index
  std::string metrics_json;
  std::string trace_jsonl;
};

template <typename Replica, typename Item>
ScheduleRun run_schedule(Replica& world, const std::vector<std::size_t>& order,
                         const Item& item) {
  obs::TraceConfig tc;
  tc.enabled = true;
  tc.per_item_cap = 4096;
  obs::Recorder rec(tc);
  ScheduleRun run;
  run.results.resize(order.size());
  {
    obs::RecorderScope scope(rec);
    for (std::size_t i : order) {
      obs::begin_item(i);
      world.begin_trial(runner::item_seed(0x9e37, i));
      run.results[i] = item(world, i);
    }
  }
  run.metrics_json = rec.metrics.to_json();
  run.trace_jsonl = rec.trace.to_jsonl();
  return run;
}

/// The first line at which two dumps differ, for a readable failure.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream in_a(a), in_b(b);
  for (std::size_t line = 1;; ++line) {
    std::string la, lb;
    const bool more_a = static_cast<bool>(std::getline(in_a, la));
    const bool more_b = static_cast<bool>(std::getline(in_b, lb));
    if (!more_a && !more_b) return "none";
    if (la != lb || more_a != more_b) {
      return "line " + std::to_string(line) + ":\n  first:  " + la +
             "\n  second: " + lb;
    }
  }
}

template <typename MakeWorld, typename Item>
void expect_schedule_invariant(std::size_t n, const MakeWorld& make_world,
                               const Item& item) {
  std::vector<std::size_t> in_order(n);
  std::iota(in_order.begin(), in_order.end(), std::size_t{0});
  std::vector<std::size_t> shuffled = in_order;
  util::Rng(0x5c4ed).shuffle(shuffled);
  ASSERT_NE(shuffled, in_order);

  auto first = make_world();
  const ScheduleRun ordered = run_schedule(*first, in_order, item);
  auto second = make_world();
  const ScheduleRun permuted = run_schedule(*second, shuffled, item);

  ASSERT_FALSE(ordered.trace_jsonl.empty());
  EXPECT_EQ(ordered.results, permuted.results);
  EXPECT_TRUE(ordered.metrics_json == permuted.metrics_json)
      << first_difference(ordered.metrics_json, permuted.metrics_json);
  EXPECT_TRUE(ordered.trace_jsonl == permuted.trace_jsonl)
      << first_difference(ordered.trace_jsonl, permuted.trace_jsonl);
}

// Domain sweep with DNS and the SNI-IV probe: every item talks to the ISP
// resolvers and both US machines, from every vantage point, through
// stochastic devices.
TEST(ScheduleIsolation, ScenarioDomainSweepIgnoresItemOrder) {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.05;
  topo::Scenario scout(cfg);
  std::vector<const topo::DomainInfo*> domains;
  const auto& corpus = scout.corpus().domains();
  for (std::size_t i = 0; i < corpus.size(); i += 7) {
    domains.push_back(&corpus[i]);
  }

  measure::DomainTestConfig tc;
  tc.run_dns = true;
  tc.probe_sni_iv = true;
  expect_schedule_invariant(
      domains.size(), [&cfg] { return std::make_unique<topo::Scenario>(cfg); },
      [&](topo::Scenario& sc, std::size_t i) {
        measure::DomainTester tester(sc);
        const measure::DomainVerdict v = tester.test_domain(*domains[i], tc);
        std::ostringstream out;
        out << v.domain << '=';
        for (measure::SniOutcome o : v.tspu) out << static_cast<int>(o) << ',';
        for (bool b : v.isp_blockpage) out << b;
        return out.str();
      });
}

// National scan under bursty link loss and a SYN flood: a retried fragment
// fingerprint plus frag-TTL localization per endpoint.
TEST(ScheduleIsolation, NationalFaultedFloodedScanIgnoresItemOrder) {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = 0.0005;
  cfg.n_ases = 60;
  cfg.link_faults.burst = netsim::GilbertElliott::bursty(0.02, 8.0);
  cfg.link_faults.burst.relax_steps_per_second = 1000.0;
  netsim::FloodCampaign syn;
  syn.kind = netsim::FloodKind::kSynFlood;
  syn.duration = util::Duration::millis(500);
  syn.packets_per_burst = 8;
  syn.burst_interval = util::Duration::millis(50);
  cfg.floods = {syn};

  topo::NationalTopology scout(cfg);
  std::vector<std::size_t> endpoints;
  for (std::size_t i = 0; i < scout.endpoints().size(); i += 40) {
    endpoints.push_back(i);
  }

  const measure::RetryPolicy policy;
  expect_schedule_invariant(
      endpoints.size(),
      [&cfg] { return std::make_unique<topo::NationalTopology>(cfg); },
      [&](topo::NationalTopology& topo, std::size_t i) {
        const topo::Endpoint& ep = topo.endpoints()[endpoints[i]];
        const measure::FragFingerprintVerdict fv =
            measure::probe_fragment_limit_retry(topo.net(), topo.prober(),
                                                ep.addr, ep.port, policy);
        const measure::FragLocalizeResult loc = measure::locate_by_fragments(
            topo.net(), topo.prober(), ep.addr, ep.port, /*max_ttl=*/24,
            &policy);
        std::ostringstream out;
        out << ep.addr.value() << ':' << static_cast<int>(fv.verdict) << ','
            << fv.tspu_like << ',' << fv.attempts << '|'
            << loc.min_working_ttl.value_or(-1) << ',' << loc.path_hops
            << ',' << loc.device_hops_from_destination.value_or(-1);
        return out.str();
      });
}

// The §8 strategy matrix the way circumvention_matrix runs it: one vantage
// point's matrix after another's on the same Scenario. Each of its
// exchanges is a trial of its own, so ER-Telecom's matrix — verdicts and
// every trace event — must not depend on the Rostelecom exchanges before it.
TEST(ScheduleIsolation, StrategyMatrixIgnoresEarlierExchanges) {
  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = 0.02;
  auto er_telecom_matrix = [](topo::Scenario& sc) {
    obs::TraceConfig tc;
    tc.enabled = true;
    tc.per_item_cap = std::size_t{1} << 20;  // keep the whole matrix
    obs::Recorder rec(tc);
    ScheduleRun run;
    {
      obs::RecorderScope scope(rec);
      for (const circumvent::StrategyOutcome& o :
           circumvent::evaluate_strategies(sc, sc.vp("ER-Telecom"))) {
        std::ostringstream out;
        out << circumvent::strategy_name(o.strategy) << '=' << o.evades_sni_i
            << o.evades_sni_ii << o.evades_quic;
        run.results.push_back(out.str());
      }
    }
    run.trace_jsonl = rec.trace.to_jsonl();
    return run;
  };

  topo::Scenario fresh(cfg);
  const ScheduleRun alone = er_telecom_matrix(fresh);
  topo::Scenario shared(cfg);
  circumvent::evaluate_strategies(shared, shared.vp("Rostelecom"));
  const ScheduleRun after = er_telecom_matrix(shared);

  ASSERT_FALSE(alone.trace_jsonl.empty());
  EXPECT_EQ(alone.results, after.results);
  EXPECT_TRUE(alone.trace_jsonl == after.trace_jsonl)
      << first_difference(alone.trace_jsonl, after.trace_jsonl);
}

}  // namespace
}  // namespace tspu
