// Table 4: the echo-server measurement pipeline — discovered echo servers,
// the Nmap-style ethics filter, and TSPU-positive counts with AS breadth.
// The echo probes run sharded over NationalTopology replicas.
#include <memory>
#include <set>

#include "bench_common.h"
#include "measure/common.h"
#include "measure/echo.h"
#include "measure/target_filter.h"
#include "runner/runner.h"
#include "topo/national.h"
#include "util/table.h"

using namespace tspu;

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("table4_echo", 0.003);
  bench::banner("Table 4", "Echo-server (Quack) measurement results");

  topo::NationalConfig cfg;
  cfg.endpoint_scale = report.scale();
  cfg.n_ases = bench::env_int("TSPU_BENCH_ASES", 400);
  cfg.echo_servers = 1404;  // the paper's absolute echo population
  constexpr std::uint64_t kSeed = 0x7ab1e4;

  auto scout = std::make_unique<topo::NationalTopology>(cfg);
  std::vector<std::size_t> echo_servers, filtered;
  for (std::size_t i = 0; i < scout->endpoints().size(); ++i) {
    const auto& ep = scout->endpoints()[i];
    if (!ep.echo_server) continue;
    echo_servers.push_back(i);
    if (measure::is_non_residential_label(ep.device_label))
      filtered.push_back(i);
  }

  const std::vector<bool> positive_flags = runner::shard_map(
      filtered.size(), report.jobs(),
      [&scout, &cfg](int shard) {
        return shard == 0 && scout
                   ? std::move(scout)
                   : std::make_unique<topo::NationalTopology>(cfg);
      },
      [&filtered](std::unique_ptr<topo::NationalTopology>& topo,
                  std::size_t i) {
        topo->begin_trial(runner::item_seed(kSeed, i));
        measure::reset_fresh_port();
        const auto& ep = topo->endpoints()[filtered[i]];
        return measure::quack_echo_test(topo->net(), topo->prober(), ep.addr)
            .tspu_positive;
      });

  // The scout may have been adopted by shard 0; rebuild for the AS tallies.
  if (!scout) scout = std::make_unique<topo::NationalTopology>(cfg);
  std::vector<std::size_t> positive;
  for (std::size_t i = 0; i < positive_flags.size(); ++i) {
    if (positive_flags[i]) positive.push_back(filtered[i]);
  }

  auto as_count = [&scout](const std::vector<std::size_t>& v) {
    std::set<int> ases;
    for (std::size_t i : v) ases.insert(scout->endpoints()[i].as_index);
    return ases.size();
  };

  util::Table table({"", "Echo servers", "Nmap-filtered", "TSPU-positive",
                     "(paper)"});
  table.row({"IPs", std::to_string(echo_servers.size()),
             std::to_string(filtered.size()), std::to_string(positive.size()),
             "1404 / 1136 / 417"});
  table.row({"ASes", std::to_string(as_count(echo_servers)),
             std::to_string(as_count(filtered)),
             std::to_string(as_count(positive)), "188 / 47 / 15"});
  std::printf("%s", table.render().c_str());
  bench::note("Positives are echo servers whose path crosses an "
              "upstream-only device: 'upstream-only TSPU devices can be "
              "prevalent on Russia's network' (§7.2).");

  report.metric("echo_servers", echo_servers.size());
  report.metric("filtered", filtered.size());
  report.metric("tspu_positive", positive.size());
  report.write();
  return 0;
}
