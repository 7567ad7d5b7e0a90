// Figure 12: histogram of the number of hops TSPU devices sit away from
// destination IPs, via frag-TTL localization over every scan-positive
// endpoint, validated against topology ground truth. Runs sharded; the
// histogram is identical for every TSPU_BENCH_JOBS value.
#include <map>

#include "bench_common.h"
#include "measure/scan.h"
#include "topo/national.h"
#include "util/table.h"

using namespace tspu;

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("fig12_hops", 0.004);
  bench::banner("Figure 12", "Hops between TSPU device and destination IP");

  topo::NationalConfig cfg;
  cfg.endpoint_scale = report.scale();
  cfg.n_ases = bench::env_int("TSPU_BENCH_ASES", 400);

  measure::ParallelScanConfig scan_cfg;
  scan_cfg.fingerprint = false;
  scan_cfg.localize = true;
  scan_cfg.filter = [](const topo::Endpoint& ep) {
    return ep.tspu_downstream_visible;
  };
  const auto outcome = measure::parallel_scan(cfg, scan_cfg, report.jobs());

  std::map<int, int> histogram;
  int located = 0, matched_truth = 0;
  const int total_positive = static_cast<int>(outcome.records.size());
  for (const measure::ScanRecord& rec : outcome.records) {
    if (!rec.location || !rec.location->device_hops_from_destination) continue;
    ++located;
    ++histogram[*rec.location->device_hops_from_destination];
    if (*rec.location->device_hops_from_destination == rec.truth_hops)
      ++matched_truth;
  }

  int total = 0, within_two = 0;
  for (const auto& [h, c] : histogram) {
    total += c;
    if (h <= 2) within_two += c;
  }
  util::Table table({"hops", "localizations", "share", "bar"});
  for (const auto& [h, c] : histogram) {
    table.row({std::to_string(h), std::to_string(c),
               std::to_string(100 * c / std::max(total, 1)) + "%",
               std::string(std::min(60, 60 * c / std::max(total, 1)), '#')});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("endpoints behind downstream-visible devices: %d; localized: "
              "%d; localization agrees with ground truth: %d (%.1f%%)\n",
              total_positive, located, matched_truth,
              located ? 100.0 * matched_truth / located : 0.0);
  std::printf("within two hops of destination: %.0f%% (paper: ~69%%)\n",
              total ? 100.0 * within_two / total : 0.0);

  report.metric("endpoints", total_positive);
  report.metric("localized", located);
  report.metric("matched_truth", matched_truth);
  report.metric("within_two_share",
                total ? static_cast<double>(within_two) / total : 0.0);
  report.write();
  return 0;
}
