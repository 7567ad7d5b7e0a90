// Flight-recorder facade: per-shard Recorder, thread-local binding, and the
// cheap instrumentation entry points the rest of the tree calls.
//
// Threading model mirrors src/runner: one Recorder per shard thread, bound
// via RecorderScope, merged into the parent recorder in shard order after
// the join. Instrumented code never synchronizes — it only touches its own
// thread's recorder — so tracing cannot perturb scheduling or results.
//
// Gating: when no recorder is bound, or tracing is disabled, CounterRef::add
// is a cached-nullptr check and trace_event is a single branch. The
// TSPU_TRACE env knob is read HERE (src/obs is the one module allowed to
// read the environment; tspulint bans getenv in src/netsim and src/tspu):
//   TSPU_TRACE=1       enable event tracing (counters are always on when a
//                      recorder is bound; events only when tracing is on)
//   TSPU_TRACE_CAP=N   per-item keep-last ring capacity (default 4096)
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/time.h"

namespace tspu::obs {

struct TraceConfig {
  bool enabled = false;          // emit TraceEvents (counters are free-standing)
  std::size_t per_item_cap = 4096;
};

/// One TSPU_TRACE/TSPU_TRACE_CAP read, cached for the process lifetime.
TraceConfig env_trace_config();

/// A shard-local (or test-local) flight recorder: metric registry + event
/// ring. Bind with RecorderScope; merge children with merge_from.
class Recorder {
  // Declared first: `trace` below is initialized from it.
  TraceConfig config_;

 public:
  explicit Recorder(TraceConfig config = env_trace_config())
      : config_(config), trace(config_.per_item_cap) {}

  const TraceConfig& config() const { return config_; }

  /// Fold a shard recorder into this one. Counters/histograms sum, gauges
  /// max, trace items are disjoint — call in shard order for a stable ring.
  void merge_from(Recorder&& child) {
    metrics.merge_from(child.metrics);
    trace.merge_from(std::move(child.trace));
  }

  /// Checkpoint serialization: metrics then trace, non-destructive (the
  /// recorder keeps recording afterwards).
  void save_state(util::StateWriter& w) const {
    metrics.save_state(w);
    trace.save_state(w);
  }

  /// Folds a saved recorder in with the merge_from algebra; false on
  /// malformed input (the recorder may then be partially merged — callers
  /// reject the whole snapshot on failure).
  bool load_state(util::StateReader& r) {
    return metrics.load_state(r) && trace.load_state(r);
  }

  MetricsRegistry metrics;
  TraceRing trace;
};

namespace detail {

/// Per-thread recording state. `gen` increments whenever the binding changes
/// so that CounterRef caches from a previous binding cannot be used against
/// a recorder that no longer exists (a new Recorder can reuse the address).
/// Exposed in the header ONLY so recorder()/tracing()/CounterRef::add inline
/// into the per-packet hot paths; everything outside src/obs goes through
/// those accessors. All members constant-initialize; constinit makes every
/// use read the thread_local directly instead of calling a TLS init wrapper.
/// The accessors read `tls.` fields directly rather than binding a
/// reference: UBSan's null check on such a binding misfires in optimized
/// GCC 12 builds.
struct TlsState {
  Recorder* rec = nullptr;
  int mute = 0;
  std::uint64_t gen = 0;
  std::size_t item = 0;
  std::uint64_t seq = 0;
  std::int64_t epoch_us = 0;
};

extern constinit thread_local TlsState tls;

}  // namespace detail

/// The recorder bound to this thread, or nullptr. Instrumentation sites
/// must tolerate nullptr (everything in this header already does).
inline Recorder* recorder() {
  return detail::tls.mute > 0 ? nullptr : detail::tls.rec;
}

/// True iff a recorder is bound, tracing is enabled, and no MuteGuard is
/// active. Use to skip building event strings that would be discarded.
inline bool tracing() {
  return detail::tls.mute == 0 && detail::tls.rec != nullptr &&
         detail::tls.rec->config().enabled;
}

/// Marks the start of work item `index` on this thread: subsequent events
/// carry this item id, the per-item seq restarts, and the epoch resets
/// (anchor_epoch re-anchors it once begin_trial finishes quiescing).
void begin_item(std::size_t index);

/// Anchors the current item's trace epoch at sim-instant `now`: subsequent
/// event timestamps are relative to it. Shard clocks accumulate across the
/// items a shard has run, so absolute times are K-dependent; item-relative
/// times are not.
void anchor_epoch(util::Instant now);

/// Record one trace event on the bound recorder (no-op unless tracing()).
/// `t` is an absolute sim instant; it is stored relative to the item epoch.
void trace_event(Layer layer, std::string_view kind, util::Instant t,
                 std::string flow = {}, std::string detail = {},
                 std::string packet_hex = {});

/// Binds a recorder to this thread for the scope's lifetime, saving and
/// restoring the previous binding AND the previous item/seq/epoch — so a
/// jobs=1 inline run cannot pollute the calling thread's trace state.
class RecorderScope {
 public:
  explicit RecorderScope(Recorder& rec);
  ~RecorderScope();
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;

 private:
  Recorder* prev_rec_;
  std::size_t prev_item_;
  std::uint64_t prev_seq_;
  std::int64_t prev_epoch_us_;
  int prev_mute_;
};

/// Suppresses all recording on this thread while alive. Used around work
/// whose cost depends on shard count — replica construction, begin_trial
/// quiescing — which would otherwise make counters K-dependent.
class MuteGuard {
 public:
  MuteGuard();
  ~MuteGuard();
  MuteGuard(const MuteGuard&) = delete;
  MuteGuard& operator=(const MuteGuard&) = delete;
};

/// A named counter resolved lazily against the bound recorder. The pointer
/// is cached per (thread-binding) generation: rebinding a recorder bumps the
/// generation, invalidating caches that would otherwise dangle into a
/// destroyed registry. `name` must be a string literal (stored by pointer).
class CounterRef {
 public:
  explicit constexpr CounterRef(const char* name) : name_(name) {}

  void add(std::uint64_t delta = 1) {
    if (detail::tls.mute > 0 || detail::tls.rec == nullptr) return;
    if (cached_ == nullptr || cached_gen_ != detail::tls.gen) {
      slow_bind();
    }
    cached_->add(delta);
  }

 private:
  /// Re-resolves the counter against the current binding (registry lookup);
  /// off the fast path so add() stays a couple of compares per call.
  void slow_bind();

  const char* name_;
  Counter* cached_ = nullptr;
  std::uint64_t cached_gen_ = 0;
};

/// A sim-clock span: records begin/end trace events and feeds the duration
/// into a histogram named `<kind>.us`. Durations are sim-clock only.
class Span {
 public:
  Span(Layer layer, std::string kind, util::Instant start, std::string flow = {});
  void end(util::Instant stop, std::string detail = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  std::string kind_;
  std::string flow_;
  util::Instant start_;
  bool ended_ = false;
};

/// Lowercase hex of a byte span — how packet bytes travel inside JSONL.
std::string hex_encode(std::span<const std::uint8_t> bytes);

/// Inverse of hex_encode; returns false on odd length or non-hex input.
bool hex_decode(std::string_view hex, std::string& out);

}  // namespace tspu::obs

/// Bumps the named flight-recorder counter. One static thread_local
/// CounterRef per call site: the unbound-recorder fast path is a TLS load
/// and a null check, and the name is only hashed once per thread binding.
/// `name` must be a string literal.
#define TSPU_OBS_COUNT(name) TSPU_OBS_COUNT_N(name, 1)

#define TSPU_OBS_COUNT_N(name, n)                                      \
  do {                                                                 \
    static thread_local ::tspu::obs::CounterRef tspu_obs_ref_{(name)}; \
    tspu_obs_ref_.add((n));                                            \
  } while (0)
