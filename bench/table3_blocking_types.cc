// Table 3: domains grouped by SNI blocking type, including the verbatim
// out-registry SNI-II group and the SNI-IV subset, discovered by probing.
// The probe sweep is sharded; groups are identical for any TSPU_BENCH_JOBS.
#include <map>
#include <memory>

#include "bench_common.h"
#include "measure/domain_tester.h"
#include "runner/runner.h"
#include "topo/scenario.h"
#include "util/table.h"

using namespace tspu;

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("table3_blocking_types");
  const double scale = bench::env_double("TSPU_BENCH_CORPUS_SCALE", 1.0);
  bench::banner("Table 3", "Domain blocking types (corpus scale " +
                               std::to_string(scale) + ")");

  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = scale;
  topo::Scenario scout(cfg);
  const std::size_t n_domains = scout.corpus().domains().size();

  // Probe all Tranco + registry-sample domains from one vantage point with
  // SNI-IV follow-ups for everything that shows SNI-I.
  measure::DomainTestConfig tc;
  tc.depth = measure::ClassifyDepth::kStandard;
  tc.run_dns = false;
  tc.probe_sni_iv = true;
  constexpr std::uint64_t kSeed = 0x7ab1e3;

  struct Ctx {
    std::unique_ptr<topo::Scenario> scenario;
    std::unique_ptr<measure::DomainTester> tester;
  };
  const std::vector<measure::DomainVerdict> verdicts = runner::shard_map(
      n_domains, report.jobs(),
      [&cfg](int) {
        Ctx ctx;
        ctx.scenario = std::make_unique<topo::Scenario>(cfg);
        ctx.tester = std::make_unique<measure::DomainTester>(*ctx.scenario);
        return ctx;
      },
      [&tc](Ctx& ctx, std::size_t i) {
        ctx.scenario->begin_trial(runner::item_seed(kSeed, i));
        return ctx.tester->test_domain(ctx.scenario->corpus().domains()[i], tc);
      });

  std::map<std::string, std::vector<std::string>> by_type;
  for (const auto& v : verdicts) {
    // Use the first vantage point's verdict (uniform across VPs, §6.3).
    switch (v.tspu.front()) {
      case measure::SniOutcome::kRstAck:
        by_type["SNI-I"].push_back(v.domain);
        break;
      case measure::SniOutcome::kDelayedDrop:
        by_type["SNI-II"].push_back(v.domain);
        break;
      case measure::SniOutcome::kFullDrop:
        by_type["SNI-IV (and SNI-I)"].push_back(v.domain);
        break;
      default:
        break;
    }
  }

  util::Table table({"type", "count", "examples"});
  for (const auto& [type, list] : by_type) {
    std::string examples;
    for (std::size_t i = 0; i < list.size() && examples.size() < 70; ++i) {
      examples += list[i] + " ";
    }
    table.row({type, std::to_string(list.size()), examples});
    report.metric(type == "SNI-I" ? "sni_i"
                  : type == "SNI-II" ? "sni_ii"
                                     : "sni_iv",
                  list.size());
  }
  std::printf("%s", table.render().c_str());
  bench::note("Paper: SNI-I covers 9,899 domains (e.g. facebook.com, "
              "twitter.com, dw.com); SNI-II exactly {nordaccount.com, "
              "play.google.com, news.google.com, nordvpn.com}; SNI-IV a "
              "select subset of SNI-I (twimg.com, t.co, messenger.com, "
              "cdninstagram.com, twitter.com, web.facebook.com, "
              "numbuster.ru).");
  report.metric("domains_probed", n_domains);
  report.write();
  return 0;
}
