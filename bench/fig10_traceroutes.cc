// Figure 10: traceroutes with TSPU links — for a sample of TSPU-positive
// endpoints, run a TCP traceroute plus frag-TTL localization and report the
// distinct "TSPU links" (router pair straddling the device) and their
// position relative to the destination. Runs sharded; the sample selection
// and every link are identical for any TSPU_BENCH_JOBS value.
#include <map>

#include "bench_common.h"
#include "measure/scan.h"
#include "topo/national.h"
#include "util/table.h"

using namespace tspu;

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("fig10_traceroutes", 0.004);
  const int sample = bench::env_int("TSPU_BENCH_TRACEROUTES", 400);
  bench::banner("Figure 10", "Traceroutes and TSPU links (sample " +
                                 std::to_string(sample) + ")");

  topo::NationalConfig cfg;
  cfg.endpoint_scale = report.scale();
  cfg.n_ases = bench::env_int("TSPU_BENCH_ASES", 400);

  // Spread the sample over the positives so it spans many ASes rather than
  // exhausting the first few.
  measure::ParallelScanConfig scan_cfg;
  scan_cfg.fingerprint = false;
  scan_cfg.localize = true;
  scan_cfg.trace_links = true;
  scan_cfg.filter = [](const topo::Endpoint& ep) {
    return ep.tspu_downstream_visible;
  };
  scan_cfg.spread_sample = static_cast<std::size_t>(std::max(sample, 1));
  const auto outcome = measure::parallel_scan(cfg, scan_cfg, report.jobs());

  std::map<int, int> by_hops_from_dst;
  int leaf_links = 0;
  const int traceroutes = static_cast<int>(outcome.records.size());
  for (const measure::ScanRecord& rec : outcome.records) {
    if (!rec.location || !rec.location->device_hops_from_destination) continue;
    ++by_hops_from_dst[*rec.location->device_hops_from_destination];
    // Zero-valued "after" side = device adjacent to the destination leaf.
    if (rec.tspu_link && rec.tspu_link->second == 0) ++leaf_links;
  }
  const auto& tspu_links = outcome.summary.tspu_links;

  std::printf("traceroutes to TSPU-positive endpoints: %d\n", traceroutes);
  std::printf("distinct TSPU links identified: %zu\n", tspu_links.size());
  std::printf("links adjacent to the destination leaf: %d\n\n", leaf_links);

  util::Table table({"hops from destination", "TSPU links located", "bar"});
  int within_two = 0, total = 0;
  for (const auto& [hops, count] : by_hops_from_dst) {
    total += count;
    if (hops <= 2) within_two += count;
    table.row({std::to_string(hops), std::to_string(count),
               std::string(std::min(60, count), '#')});
  }
  std::printf("%s", table.render().c_str());
  if (total > 0) {
    std::printf("\nwithin two hops of the destination: %.0f%% "
                "(paper: ~69%% within the first two hops, Fig 12)\n",
                100.0 * within_two / total);
  }
  bench::note("paper: 1M+ traceroutes, 6,871 unique TSPU links, devices "
              "'closer to network leaves than to border or backbone'.");

  report.metric("traceroutes", traceroutes);
  report.metric("distinct_tspu_links", tspu_links.size());
  report.metric("leaf_links", leaf_links);
  report.write();
  return 0;
}
