// campaign_bench: runs one of the paper's campaigns as a closed-loop batch
// workload, checks every result against the simulator's ground truth, and
// prints its metrics as one JSON line (the last line of stdout).
//
//   campaign_bench --workload national_scan|domain_sweep
//                  [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//                  [--work-dir DIR] [--spans FILE]
//
// --trace 0 reports the end-to-end metrics (items_per_s, setup_s,
// peak_rss_mb, verdict_agreement); --trace 1 runs the traced pass and
// reports the per-layer metrics. See README.md next to this file.
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.h"

namespace {

using tspu::campaign_bench::Options;
using tspu::campaign_bench::Result;

void usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload "
               "national_scan|domain_sweep [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--work-dir DIR] "
               "[--spans FILE]\n");
}

template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!parse_number(value, opt.seed)) return false;
    } else if (arg == "--seconds") {
      if (!parse_number(value, opt.seconds) || opt.seconds <= 0) return false;
    } else if (arg == "--trace") {
      int trace = 0;
      if (!parse_number(value, trace) || (trace != 0 && trace != 1)) {
        return false;
      }
      opt.trace = trace == 1;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      return false;
    }
  }
  return opt.workload == "national_scan" || opt.workload == "domain_sweep";
}

/// Shortest decimal that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

void print(const Options& opt, const Result& r) {
  std::printf("campaign_bench %s seed=%" PRIu64 " trace=%d%s\n",
              opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0,
              opt.tiny ? " (tiny)" : "");
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  std::printf("  failed_share %s ratio (%" PRIu64 " of %" PRIu64
              " items contradict ground truth or threw)\n",
              number(r.attempted == 0 ? 0
                                      : static_cast<double>(r.failed) /
                                            static_cast<double>(r.attempted))
                  .c_str(),
              r.failed, r.attempted);
  for (const std::string& p : r.problems) {
    std::printf("  INCORRECT: %s\n", p.c_str());
  }
  for (const auto& m : r.metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  try {
    Result r = opt.workload == "domain_sweep"
                   ? tspu::campaign_bench::run_domain_sweep(opt)
                   : tspu::campaign_bench::run_national_scan(opt);
    if (r.failed > 0) r.correct = false;
    print(opt, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
