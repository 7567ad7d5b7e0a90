// Shared pieces of the campaign benchmark: command-line options, the result
// line every invocation prints, wall-clock and resident-set readings, seed
// forking, and the canonical result digest used by the correctness checks.
//
// The benchmark times the calls it makes into each layer from outside:
// nothing in src/ reads a wall clock on its behalf.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tspu::campaign_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The default --seed. World seeds and item-seed roots are forked from the
/// seed, so every workload is re-checkable on seeds it was not tuned on.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Wall-clock budget of the measuring loop (repetitions stop starting
  /// once the next one would overrun it).
  double seconds = 10;
  /// 0: untraced run, end-to-end metrics. 1: traced run, per-layer metrics.
  bool trace = false;
  /// Self-test size: same code paths, a world small enough for seconds.
  bool tiny = false;
  /// Existing directory for scratch files (checkpoint snapshots).
  std::string work_dir = ".";
  /// Traced run: where the span JSONL goes ("" = keep spans in memory only).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one invocation reports: the JSON result line plus the
/// human-readable notes printed above it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::vector<std::string> notes;     ///< summary lines printed to stdout

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Independent child seed for one consumer (world, corpus, item roots).
std::uint64_t fork_seed(std::uint64_t seed, std::uint64_t stream);

/// Median and nearest-rank quantile; 0 for an empty sample.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);
/// "min q1 median q3 max" of a sample, for the run summary.
std::string spread(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();
/// Current resident set of this process, in MiB.
double current_rss_mb();

/// Decides whether another repetition fits in a wall-clock budget: at least
/// `min_rounds` always run; after that a round starts only if the median
/// round so far would still end within the budget.
class RoundClock {
 public:
  RoundClock(double budget_s, int min_rounds)
      : budget_s_(budget_s), min_rounds_(min_rounds) {}

  bool another() {
    const Clock::time_point now = Clock::now();
    if (rounds_ == 0) {
      begin_ = now;
    } else {
      laps_.push_back(seconds_between(last_, now));
    }
    last_ = now;
    if (rounds_ >= min_rounds_ &&
        seconds_between(begin_, now) + median(laps_) > budget_s_) {
      return false;
    }
    ++rounds_;
    return true;
  }
  int rounds() const { return rounds_; }

 private:
  double budget_s_;
  int min_rounds_;
  int rounds_ = 0;
  Clock::time_point begin_;
  Clock::time_point last_;
  std::vector<double> laps_;
};

/// Canonical little-endian byte encoding of results, so two result vectors
/// can be compared byte for byte and summarized as one FNV-1a digest.
class Encoder {
 public:
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { bytes_.push_back(v ? '\1' : '\0'); }
  void str(std::string_view s);

  const std::string& bytes() const { return bytes_; }
  std::uint64_t digest() const;

 private:
  std::string bytes_;
};

/// Appends the end-to-end metrics of an untraced run: the workload's
/// throughput figure `items_per_s`, the fastest of its set-up samples, the
/// process's peak resident set, and the share of attempted items that agree
/// with ground truth. The spread of the per-campaign throughputs and of the
/// set-up samples goes to the notes.
///
/// Why the fastest: every set-up in a run builds the same world from the
/// same seed, and on a shared host other tenants only ever add time to
/// that work. The fastest sample tracks the program's own cost; the median
/// follows the host's speed from minute to minute.
void report_end_to_end(Result& res, double items_per_s,
                       const std::vector<double>& campaign_items_per_s,
                       const std::vector<double>& setup_s, double peak_rss_mb);

/// Compares a run's result digest with the recorded one and notes the
/// outcome; a mismatch marks the result incorrect.
void check_recorded_digest(Result& result, std::string_view workload,
                           const Options& opt, std::uint64_t digest);

// Workload entry points (one per process). Untraced runs fill the
// end-to-end metrics, traced runs the per-layer ones.
Result run_national_scan(const Options& opt);
Result run_domain_sweep(const Options& opt);

}  // namespace tspu::campaign_bench
