// Figure 6: sets of domains blocked by each ISP's own (DNS blockpage)
// censorship vs by the TSPU, over the Tranco list and the Registry Sample.
// Reproduces the headline: TSPU blocking is uniform across vantage points
// and far ahead of lagging ISP blocklists on recent registry additions.
//
// The domain sweep is sharded (one Scenario replica + DomainTester per
// worker); verdicts are identical for any TSPU_BENCH_JOBS value.
#include <memory>
#include <vector>

#include "bench_common.h"
#include "measure/domain_tester.h"
#include "measure/registry_lag.h"
#include "runner/runner.h"
#include "topo/scenario.h"
#include "util/strings.h"
#include "util/table.h"

using namespace tspu;

namespace {

struct Counts {
  int tspu = 0;
  int isp[3] = {0, 0, 0};
  int tspu_only = 0;        ///< blocked by TSPU, by no ISP resolver
  int out_registry = 0;     ///< TSPU-blocked domains absent from the registry
  int uniform_tspu = 0;     ///< TSPU verdict identical at all three VPs
  int total = 0;
};

Counts tally(const std::vector<measure::DomainVerdict>& verdicts) {
  Counts c;
  for (const auto& v : verdicts) {
    ++c.total;
    const bool tspu = v.tspu_blocked_anywhere();
    bool any_isp = false;
    for (std::size_t i = 0; i < v.isp_blockpage.size(); ++i) {
      if (v.isp_blockpage[i]) {
        ++c.isp[i];
        any_isp = true;
      }
    }
    if (tspu) {
      ++c.tspu;
      if (!any_isp) ++c.tspu_only;
      if (!v.in_registry) ++c.out_registry;
      if (v.tspu_blocked_everywhere()) ++c.uniform_tspu;
    }
  }
  return c;
}

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("fig6_coverage");
  const double scale = bench::env_double("TSPU_BENCH_CORPUS_SCALE", 1.0);
  bench::banner("Figure 6", "Domains blocked by ISPs vs the TSPU (scale " +
                                std::to_string(scale) + ")");

  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = scale;

  // The scout replica enumerates the corpus and serves the registry-lag
  // lookups at the end; shards build their own replicas.
  topo::Scenario scout(cfg);
  const std::size_t n_tranco = scout.corpus().tranco_list().size();
  const std::size_t n_registry = scout.corpus().registry_sample().size();

  measure::DomainTestConfig tc;
  tc.depth = measure::ClassifyDepth::kQuick;
  constexpr std::uint64_t kSeed = 0xf16c0;

  struct Ctx {
    std::unique_ptr<topo::Scenario> scenario;
    std::unique_ptr<measure::DomainTester> tester;
    /// Tranco list then registry sample, from this replica's corpus:
    /// item i tests domains[i].
    std::vector<const topo::DomainInfo*> domains;
  };
  std::vector<measure::DomainVerdict> verdicts = runner::shard_map(
      n_tranco + n_registry, report.jobs(),
      [&cfg](int) {
        Ctx ctx;
        ctx.scenario = std::make_unique<topo::Scenario>(cfg);
        ctx.tester = std::make_unique<measure::DomainTester>(*ctx.scenario);
        ctx.domains = ctx.scenario->corpus().tranco_list();
        const auto registry = ctx.scenario->corpus().registry_sample();
        ctx.domains.insert(ctx.domains.end(), registry.begin(),
                           registry.end());
        return ctx;
      },
      [&](Ctx& ctx, std::size_t i) {
        ctx.scenario->begin_trial(runner::item_seed(kSeed, i));
        return ctx.tester->test_domain(*ctx.domains[i], tc);
      });

  const std::vector<measure::DomainVerdict> tranco(
      verdicts.begin(), verdicts.begin() + n_tranco);
  const std::vector<measure::DomainVerdict> registry(
      verdicts.begin() + n_tranco, verdicts.end());

  for (const auto& [name, vlist] :
       {std::pair{"Tranco list", &tranco}, {"Registry sample", &registry}}) {
    const Counts c = tally(*vlist);
    util::Table table({"measure", "count", "share"});
    table.row({"domains tested", std::to_string(c.total), ""});
    table.row({"blocked by TSPU", std::to_string(c.tspu),
               util::format_pct(c.tspu / std::max(1.0, double(c.total)))});
    table.row({"  ...uniformly at all 3 VPs", std::to_string(c.uniform_tspu),
               ""});
    table.row({"  ...out-registry", std::to_string(c.out_registry), ""});
    table.row({"  ...blocked ONLY by TSPU", std::to_string(c.tspu_only), ""});
    table.row({"blocked by Rostelecom resolver", std::to_string(c.isp[0]), ""});
    table.row({"blocked by ER-Telecom resolver", std::to_string(c.isp[1]), ""});
    table.row({"blocked by OBIT resolver", std::to_string(c.isp[2]), ""});
    std::printf("--- %s ---\n%s\n", name, table.render().c_str());
  }
  // Infer each ISP's registry sync horizon from the DNS verdicts alone
  // (the quantified version of the paper's "do not enforce blocking
  // effectively on domains recently added to the registry").
  std::printf("--- inferred ISP registry sync lag (registry sample) ---\n");
  for (std::size_t isp = 0; isp < scout.vantage_points().size(); ++isp) {
    std::vector<measure::RegistryObservation> obs;
    for (const auto& v : registry) {
      const auto* info = scout.corpus().find(v.domain);
      if (info) obs.push_back({info->registry_added_day, v.isp_blockpage[isp]});
    }
    auto est = measure::estimate_sync_lag(obs);
    std::printf("  %-12s synced through day %s of the 0-115 sample window, "
                "coverage %s\n",
                scout.vantage_points()[isp].isp.c_str(),
                est.horizon_day ? std::to_string(*est.horizon_day).c_str()
                                : "-",
                util::format_pct(est.coverage, 0).c_str());
  }
  bench::note("Paper (registry sample, absolute): TSPU blocks 9,655 at every "
              "vantage point while the Rostelecom and OBIT resolvers serve "
              "blockpages for only 1,302 and 3,943 recently-added domains.");

  const Counts tc_counts = tally(tranco), reg_counts = tally(registry);
  report.metric("tranco_domains", tc_counts.total);
  report.metric("tranco_tspu_blocked", tc_counts.tspu);
  report.metric("registry_domains", reg_counts.total);
  report.metric("registry_tspu_blocked", reg_counts.tspu);
  report.metric("registry_tspu_only", reg_counts.tspu_only);
  report.write();
  return 0;
}
