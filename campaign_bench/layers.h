// What the traced run measures per layer, from outside the program:
//  * spans the benchmark records around the calls it makes into each layer
//    (replica construction, begin_trial, the measure call, the campaign
//    call and join, and each shard's loop), kept in memory and written as
//    JSONL at exit. Spans inside the program belong to a later change.
//  * flight-recorder counters read through MetricsRegistry::counter_value.
//  * a standalone device pass for the per-packet cost of the tspu layer.
//
// Each shard thread appends only to its own span buffer, so recording needs
// no locks; buffers are merged after the campaign joins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "tspu/policy.h"

namespace tspu::campaign_bench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< "campaign", "shard", "topo.build", ...
  const char* layer = "";    ///< module the span's self time belongs to
  std::int64_t item = -1;    ///< work-item index: the spans' shared id
  int shard = -1;
  int pass = 0;
  Clock::time_point start;
  Clock::time_point end;

  double seconds() const { return seconds_between(start, end); }
};

/// One shard's (or the calling thread's) span buffer.
class SpanSink {
 public:
  SpanSink(int pass, int shard) : pass_(pass), shard_(shard) {}

  /// Reserves an id so children can name a parent before it closes.
  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(pass_) << 40) |
           (static_cast<std::uint64_t>(shard_ + 1) << 28) | ++counter_;
  }

  void add(std::uint64_t id, std::uint64_t parent, const char* name,
           const char* layer, std::int64_t item, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({id, parent, name, layer, item, shard_, pass_, start, end});
  }

  /// Runs fn() inside a new span and returns its result.
  template <typename Fn>
  auto timed(std::uint64_t parent, const char* name, const char* layer,
             std::int64_t item, Fn&& fn) {
    const std::uint64_t id = next_id();
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(id, parent, name, layer, item, start, Clock::now());
    } else {
      auto out = fn();
      add(id, parent, name, layer, item, start, Clock::now());
      return out;
    }
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  int pass_;
  int shard_;
  std::uint64_t counter_ = 0;
  std::vector<Span> spans_;
};

/// Every span of a traced run plus the derived per-layer figures.
class SpanLog {
 public:
  void absorb(SpanSink& sink);

  /// Durations (seconds) of every span with this name, in pass order.
  std::vector<double> durations(const char* name, int pass = -1) const;

  /// Sum over spans of (duration minus the union of its children), per
  /// layer, in seconds, for one pass.
  std::vector<std::pair<std::string, double>> self_time(int pass) const;

  /// Writes one JSON object per span to `path` (none when empty); times are
  /// ns since `origin`. A failed write marks `res` incorrect.
  void write_jsonl(Result& res, const std::string& path,
                   Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
};

/// Per-packet cost of one TSPU device on a workload's packet shapes, pushed
/// straight into core::Device::process as bench/device_microbench does.
struct DeviceCosts {
  double frag_ns = 0;  ///< 45- and 46-fragment SYN trains (the §7 probe)
  double tls_ns = 0;   ///< ClientHello data packets on fresh flows
};

/// Runs both packet shapes through a fresh device holding `policy`; the
/// ClientHellos cycle through `snis`. Each shape is timed for about
/// `seconds_per_shape` in chunks and the median chunk rate is reported.
DeviceCosts device_pass(const core::PolicyPtr& policy,
                        const std::vector<std::string>& snis,
                        double seconds_per_shape);

/// The flight-recorder counters the per-layer metrics divide by items.
/// Exact counts: a change that only speeds up the simulator leaves them
/// identical.
struct Counts {
  std::uint64_t sim_events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t device_packets = 0;
  std::uint64_t frag_buffered = 0;
  std::uint64_t conntrack_created = 0;
  std::uint64_t triggers = 0;
  std::uint64_t rst_rewrites = 0;

  static Counts read(const obs::MetricsRegistry& metrics);
  bool operator==(const Counts&) const = default;
};

/// One round of a traced run: the campaign through its public API with
/// tracing off, then the same items re-driven with spans.
struct TracedPass {
  std::size_t items = 0;
  double untraced_items_per_s = 0;
  double traced_items_per_s = 0;
  Counts counts;  ///< of the untraced campaign
};

/// Checkpoint-layer figures (zero on workloads that do not checkpoint).
struct CkptFigures {
  std::uint64_t snapshots = 0;       ///< snapshot files renamed into place
  std::uint64_t snapshot_bytes = 0;  ///< size of the last one
  std::vector<double> overhead_s;    ///< checkpointed minus plain wall
};

/// Appends every per-layer metric to `res` and a self-time summary to its
/// notes. `dominant_ns` is the device's per-packet cost on the shape that
/// carries the workload (fragments for scans, ClientHellos for sweeps).
void report_layers(Result& res, const SpanLog& log,
                   const std::vector<TracedPass>& passes,
                   const CkptFigures& ckpt, double replica_mb,
                   const DeviceCosts& device, double dominant_ns);

}  // namespace tspu::campaign_bench
