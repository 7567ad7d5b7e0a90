// Shared helpers for the reproduction benches: environment-variable knobs
// (so `for b in build/bench/*; do $b; done` runs at sane defaults while full
// paper-scale runs stay one env var away), banner printing, and the
// BENCH_<name>.json report every converted bench emits.
//
// Knobs:
//   TSPU_BENCH_SCALE  scales trial/endpoint counts (default: the bench's
//                     own, passed to BenchReport and read back as scale())
//   TSPU_BENCH_JOBS   worker threads for sharded benches (default: hardware
//                     concurrency; results are identical for every value)
//
// Runtime chatter (wall time, job count, malformed-knob warnings) goes to
// stderr so stdout stays byte-identical across job counts — the determinism
// tests hash it.
#pragma once

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "runner/runner.h"

namespace tspu::bench {

/// Reads a double knob from the environment, e.g. TSPU_BENCH_SCALE=1.0.
/// A malformed value (anything strtod cannot fully consume) falls back to
/// the default with a warning instead of silently becoming 0.
inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "warning: %s=\"%s\" is not a number; using %g\n",
                 name, v, fallback);
    return fallback;
  }
  return parsed;
}

/// Integer knob with the same strictness as env_double.
inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE ||
      parsed < INT_MIN || parsed > INT_MAX) {
    std::fprintf(stderr, "warning: %s=\"%s\" is not an integer; using %d\n",
                 name, v, fallback);
    return fallback;
  }
  return static_cast<int>(parsed);
}

/// Worker-thread count for sharded benches: TSPU_BENCH_JOBS, defaulting to
/// hardware concurrency. Any value picks the same results (see src/runner).
inline int env_jobs() {
  return runner::effective_jobs(env_int("TSPU_BENCH_JOBS", 0));
}

/// Binds a process-lifetime flight recorder for a bench main(). Counters are
/// always collected (they ride into the report's "obs" section); structured
/// event tracing additionally obeys the TSPU_TRACE env knob.
class ScopedRecorder {
 public:
  ScopedRecorder() : scope_(rec_) {}

 private:
  obs::Recorder rec_;
  obs::RecorderScope scope_;
};

inline void banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

// ---------------------------------------------------------------------------
// JSON bench report
// ---------------------------------------------------------------------------

/// Collects a bench's headline numbers and writes BENCH_<name>.json into the
/// working directory. The "headline" section holds only deterministic
/// simulation outputs (safe to diff across job counts); wall time, job
/// count and scale live in the separate "runtime" section.
///
/// The report is the bench's one read of TSPU_BENCH_SCALE: a bench passes
/// its default scale and runs at scale(), so the report records the scale
/// the bench ran at.
class BenchReport {
 public:
  explicit BenchReport(std::string name, double default_scale = 1.0)
      : name_(std::move(name)), jobs_(env_jobs()),
        scale_(env_double("TSPU_BENCH_SCALE", default_scale)),
        start_(std::chrono::steady_clock::now()) {}

  int jobs() const { return jobs_; }
  double scale() const { return scale_; }

  void metric(const std::string& key, double value) {
    headline_.emplace_back(key, format_double(value));
  }
  void metric(const std::string& key, long long value) {
    headline_.emplace_back(key, std::to_string(value));
  }
  void metric(const std::string& key, std::size_t value) {
    headline_.emplace_back(key, std::to_string(value));
  }
  void metric(const std::string& key, int value) {
    headline_.emplace_back(key, std::to_string(value));
  }

  /// Writes BENCH_<name>.json and logs the wall time to stderr. When a
  /// flight recorder is bound (see ScopedRecorder) its registry snapshot is
  /// embedded under "obs" — like "headline", it holds only deterministic
  /// sim-derived values, so it too diffs clean across job counts — and with
  /// TSPU_TRACE=1 the merged event ring is exported as TRACE_<name>.jsonl.
  void write() const {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"headline\": {";
    for (std::size_t i = 0; i < headline_.size(); ++i) {
      out << (i ? "," : "") << "\n    \"" << headline_[i].first
          << "\": " << headline_[i].second;
    }
    out << "\n  },\n";
    if (const obs::Recorder* rec = obs::recorder();
        rec != nullptr && !rec->metrics.empty()) {
      out << "  \"obs\": " << rec->metrics.to_json("  ") << ",\n";
    }
    out << "  \"runtime\": {\n    \"jobs\": " << jobs_
        << ",\n    \"scale\": " << format_double(scale_)
        << ",\n    \"wall_seconds\": " << format_double(wall)
        << "\n  }\n}\n";
    std::fprintf(stderr, "%s: %.2fs wall, %d jobs -> %s\n", name_.c_str(),
                 wall, jobs_, path.c_str());
    if (const obs::Recorder* rec = obs::recorder();
        rec != nullptr && rec->config().enabled) {
      const std::string trace_path = "TRACE_" + name_ + ".jsonl";
      std::ofstream trace_out(trace_path);
      trace_out << rec->trace.to_jsonl();
      std::fprintf(stderr, "%s: %zu trace events -> %s\n", name_.c_str(),
                   rec->trace.total_events(), trace_path.c_str());
    }
  }

 private:
  static std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string name_;
  int jobs_;
  double scale_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> headline_;
};

}  // namespace tspu::bench
