#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>

#include "runner/runner.h"

namespace tspu::campaign_bench {

std::uint64_t fork_seed(std::uint64_t seed, std::uint64_t stream) {
  return runner::item_seed(seed, stream);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string spread(const std::vector<double>& values) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g",
                quantile(values, 0), quantile(values, 0.25), median(values),
                quantile(values, 0.75), quantile(values, 1));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Encoder::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::str(std::string_view s) {
  u64(s.size());
  bytes_.append(s);
}

std::uint64_t Encoder::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes_) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

// Result digests of the simulator at the time the benchmark was written,
// indexed by seed: seeds 0-31 at full size, 1 and 2 at the tiny size.
constexpr std::uint64_t kScanDigests[] = {
    0xac1ca9d6191e7583ull, 0x5fe6263e90880083ull, 0xe17253735e29be8eull,
    0x917ac27b74f1042dull, 0xa5c34539b59a6c08ull, 0xd7ea96060547f1daull,
    0x3e493a09e718e4d2ull, 0xc3da0753bf9f0ae6ull, 0x1a65cc61d04e43c4ull,
    0x10c2f072709613c4ull, 0xfe773d15ac6d2703ull, 0x04181f56c6aeb5b9ull,
    0xb05c119293ed9d0full, 0xe4e3aef570abb9b2ull, 0x970b6f4cf61b0794ull,
    0x16a843e5c020cb54ull, 0xc649a0a24e4cd4e5ull, 0x221239c04d075cf5ull,
    0xb5faad0588b5ccc1ull, 0xf5bc145a5cd89878ull, 0x4ffe67ea1abd6cefull,
    0x887b8181d4e616cbull, 0xbfb2c78c77547607ull, 0x071ee8c57d44f37eull,
    0xfe88bd8d80900988ull, 0x3689f0cb48de9b9eull, 0x5585823f353e98afull,
    0x0b9bcf0fdca5d48aull, 0xe86a437fb3d6e016ull, 0x2c37bd320bb19f2aull,
    0xb5e4a3064906d7d4ull, 0x9f1e3d7954cb86bcull,
};
constexpr std::uint64_t kSweepDigests[] = {
    0x382d331d8bd81ebdull, 0x22dfa7dec96bfb3eull, 0xcf27e854021e366full,
    0x7291dd1a68965c12ull, 0x7742251232897e2dull, 0xc9862fcace231d10ull,
    0x7fb03d805b47915full, 0xe4378b46984eb9feull, 0xc6ccaa3dc55231ddull,
    0x0203e7d0bbc58068ull, 0x7d0d5e93f6034a61ull, 0xf8c790aac914e52aull,
    0x583e09c300cd068bull, 0xb47b9f188ccfd063ull, 0x5aa0043ab0761559ull,
    0xdd78ed0ebb38b4b2ull, 0xe3660fe92afe2ed9ull, 0x57fec32d0ed6c60cull,
    0x93ac6a7cf73b4951ull, 0x065222ef7c5ef3daull, 0x55c3510fed1781cdull,
    0xff5be99518179dcbull, 0x1e938d81b7676cafull, 0xebba7b2b4a579b65ull,
    0x38d167539a39f453ull, 0xca32a6996e5d0698ull, 0xe18e6b9f3a7c9426ull,
    0xc7b65d447d5a817cull, 0x3bba2f218d666137ull, 0x315c310811cfd669ull,
    0xa2f16fe3595d9638ull, 0x43e2392ba079d92dull,
};
constexpr std::uint64_t kTinyScanDigests[] = {0, 0x7121ce271d5c1232ull,
                                               0x642e0b27c77833ffull};
constexpr std::uint64_t kTinySweepDigests[] = {0, 0x4ac322f7e15b8780ull,
                                                0xfb72d72f85d7cc62ull};

/// The digest recorded for (workload, size, seed); 0 when none is.
std::uint64_t recorded_digest(std::string_view workload, bool tiny,
                              std::uint64_t seed) {
  using Table = std::span<const std::uint64_t>;
  const bool scan = workload == "national_scan";
  const Table table =
      tiny ? (scan ? Table(kTinyScanDigests) : Table(kTinySweepDigests))
           : (scan ? Table(kScanDigests) : Table(kSweepDigests));
  return seed < table.size() ? table[seed] : 0;
}

}  // namespace

void report_end_to_end(Result& res, double items_per_s,
                       const std::vector<double>& campaign_items_per_s,
                       const std::vector<double>& setup_s, double peak_rss_mb) {
  res.notes.push_back("items_per_s by campaign: " +
                      spread(campaign_items_per_s));
  res.notes.push_back("setup_s by sample: " + spread(setup_s));
  res.metric("items_per_s", items_per_s, "items/s");
  res.metric("setup_s", quantile(setup_s, 0), "s");  // the fastest
  res.metric("peak_rss_mb", peak_rss_mb, "MB");
  res.metric("verdict_agreement",
             res.attempted == 0
                 ? 0
                 : 1.0 - static_cast<double>(res.failed) /
                             static_cast<double>(res.attempted),
             "ratio");
}

void check_recorded_digest(Result& result, std::string_view workload,
                           const Options& opt, std::uint64_t digest) {
  char line[160];
  const std::uint64_t want = recorded_digest(workload, opt.tiny, opt.seed);
  if (want == 0) {
    std::snprintf(line, sizeof(line),
                  "result digest %016" PRIx64 " (none recorded for seed %" PRIu64
                  ")",
                  digest, opt.seed);
  } else if (want == digest) {
    std::snprintf(line, sizeof(line),
                  "result digest %016" PRIx64 " matches the recorded one",
                  digest);
  } else {
    std::snprintf(line, sizeof(line),
                  "result digest %016" PRIx64 " differs from recorded %016" PRIx64,
                  digest, want);
    result.fail(line);
  }
  result.notes.push_back(line);
}

}  // namespace tspu::campaign_bench
