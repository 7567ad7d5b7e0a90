// Deterministic checkpoint/resume for sharded campaigns.
//
// A campaign built on shard_map can run for hours (a 1:1-scale national
// scan probes millions of endpoints); preemption or a SIGTERM used to throw
// all of it away. checkpointed_map() is shard_map() with a durability
// contract: the completed results and the flight recorder are serialized
// into a versioned, length-prefixed snapshot, written atomically every N
// items and on SIGTERM. Resuming from the snapshot continues the campaign
// such that the final result vector, the merged metrics JSON, and the trace
// JSONL are byte-identical to an uninterrupted run, at any job count.
//
// Why this works:
//  * Results: the runner's determinism contract already makes item i's
//    result a pure function of (replica config + seed, item_seed(root, i)).
//    Completed items are reloaded verbatim; remaining items recompute to
//    the same bytes on any shard.
//  * Shard state: a resume always builds fresh replicas, at the same job
//    count or any other. The trial-isolation path (begin_trial) resets
//    everything an item can observe, so a fresh replica is equivalent to
//    one that ran the earlier items, and no shard state is saved.
//  * Observability: the Recorder merge algebra is commutative and
//    associative (counters/histograms sum, gauges max, trace items are
//    disjoint per item), so saved per-shard recorder blobs merged at
//    completion produce the same snapshot as never having stopped.
//
// The runner layer cannot see topo/ or measure/, so the campaign-specific
// result encoding lives in a Codec object the caller supplies (see
// measure/scan.h's checkpointed national scan for the canonical one).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "runner/runner.h"
#include "util/statecodec.h"

namespace tspu::runner {

struct CheckpointOptions {
  /// Snapshot file. Empty disables checkpointing entirely: checkpointed_map
  /// then runs shard_map's single wave with no snapshot I/O, and ignores
  /// the SIGTERM latch and abort_after_items.
  std::string path;
  /// Snapshot cadence in items; rounded up to a multiple of the job count
  /// so snapshots land on wave barriers. 0 behaves as 1 wave = jobs items.
  std::size_t every_n_items = 64;
  /// Load `path` before running and continue from its next_index.
  bool resume = false;
  /// Test/CI hook modelling a kill at item K: once at least this many items
  /// have completed (and the campaign is not finished), write a snapshot
  /// and throw CampaignInterrupted. 0 disables.
  std::size_t abort_after_items = 0;
};

/// Thrown by checkpointed_map when the campaign stops early (SIGTERM or the
/// abort_after_items hook) — AFTER the snapshot was written, so the catcher
/// can report the resume path and exit cleanly.
class CampaignInterrupted : public std::exception {
 public:
  CampaignInterrupted(std::string path, std::size_t completed)
      : path_(std::move(path)),
        completed_(completed),
        what_("campaign interrupted after " + std::to_string(completed) +
              " items; checkpoint written to " + path_) {}

  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& checkpoint_path() const { return path_; }
  std::size_t items_completed() const { return completed_; }

 private:
  std::string path_;
  std::size_t completed_;
  std::string what_;
};

/// Installs a SIGTERM handler that latches a flag checked at every wave
/// barrier; the in-progress wave finishes, a snapshot is written, and
/// checkpointed_map throws CampaignInterrupted. Safe to call repeatedly.
void install_sigterm_checkpoint();
/// True once SIGTERM was delivered after install_sigterm_checkpoint().
bool sigterm_requested();
/// Clears the latch (tests that raise SIGTERM at themselves).
void reset_sigterm_for_testing();

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

/// In-memory form of one snapshot file. Blobs are opaque here; their
/// encoding belongs to the campaign's Codec.
struct Snapshot {
  /// Campaign identity (config hash); resume refuses a mismatch.
  std::uint64_t identity = 0;
  std::uint64_t n_items = 0;
  /// Completed prefix: items [0, next_index) are present in `results`.
  std::uint64_t next_index = 0;
  /// Job count at save time. With a recorder bound, the last shard_count
  /// recorder blobs are this generation's; any before them are inherited.
  std::uint32_t shard_count = 0;
  std::vector<std::pair<std::uint64_t, std::string>> results;
  /// Per-shard recorder states, PLUS any base blobs inherited from earlier
  /// interrupted generations (a resume of a resume) — merged in order at
  /// campaign completion.
  std::vector<std::string> recorder_blobs;
};

/// Serializes and writes a snapshot atomically: the versioned image
/// (magic, version, body length, FNV-1a checksum, body) goes to
/// `path` + ".tmp" first and is renamed over `path` only once fully
/// written, so a kill mid-write never corrupts the previous snapshot.
bool write_snapshot(const std::string& path, const Snapshot& snapshot);

/// Reads and strictly validates a snapshot: bad magic/version, a short
/// file, a checksum mismatch, or trailing garbage all yield nullopt —
/// never UB, whatever the bytes are.
std::optional<Snapshot> read_snapshot(const std::string& path);

/// shard_map with checkpoint/resume. `codec` supplies the
/// campaign-specific encoding:
///
///   std::uint64_t identity() const;                  // config hash
///   void encode(const Result&, util::StateWriter&);  // result -> blob
///   bool decode(Result&, util::StateReader&);        // blob -> result
///
/// Result must be default-constructible (decode target). encode(decode(b))
/// must reproduce b byte-for-byte — the snapshot is re-encoded from decoded
/// results on the next checkpoint, and the codec property tests pin this.
///
/// Throws CampaignInterrupted (snapshot already written) on SIGTERM or the
/// abort_after_items hook; throws std::runtime_error when a resume snapshot
/// is missing, corrupt, or from a different campaign.
template <typename MakeCtx, typename Fn, typename Codec>
auto checkpointed_map(std::size_t n_items, int jobs_requested,
                      MakeCtx&& make_ctx, Fn&& fn, Codec&& codec,
                      const CheckpointOptions& opts) {
  detail::ShardLoop<MakeCtx, Fn> loop(n_items, jobs_requested, make_ctx, fn);
  using Result = typename detail::ShardLoop<MakeCtx, Fn>::Result;
  static_assert(std::is_default_constructible_v<Result>,
                "checkpointed_map results must be default-constructible "
                "(snapshot decode target)");
  if (n_items == 0) return loop.finish();
  const std::size_t uj = static_cast<std::size_t>(loop.jobs);
  const bool durable = !opts.path.empty();

  /// Recorder blobs inherited from interrupted generations; merged into the
  /// parent at completion and carried forward into every snapshot so a
  /// resume-of-a-resume still reproduces the full history.
  std::vector<std::string> base_recorders;

  std::size_t start = 0;
  if (opts.resume) {
    std::optional<Snapshot> snap = read_snapshot(opts.path);
    if (!snap) {
      throw std::runtime_error("checkpoint: cannot resume from '" +
                               opts.path + "': missing or corrupt snapshot");
    }
    if (snap->identity != codec.identity() || snap->n_items != n_items ||
        snap->next_index > n_items ||
        snap->results.size() != snap->next_index) {
      throw std::runtime_error(
          "checkpoint: snapshot belongs to a different campaign");
    }
    for (const auto& [index, blob] : snap->results) {
      if (index >= n_items) {
        throw std::runtime_error("checkpoint: result index out of range");
      }
      util::StateReader r(blob);
      Result res{};
      if (!codec.decode(res, r) || !r.done()) {
        throw std::runtime_error("checkpoint: result blob rejected");
      }
      loop.slots[index].emplace(std::move(res));
    }
    base_recorders = std::move(snap->recorder_blobs);
    start = static_cast<std::size_t>(snap->next_index);
  }

  // Wave size: the checkpoint cadence rounded up to a shard multiple so a
  // snapshot always happens at a barrier, with every shard quiescent.
  std::size_t chunk = n_items;
  if (durable) {
    chunk = ((std::max<std::size_t>(opts.every_n_items, 1) + uj - 1) / uj) * uj;
  }

  auto take_checkpoint = [&](std::size_t completed) {
    Snapshot snap;
    snap.identity = codec.identity();
    snap.n_items = n_items;
    snap.next_index = completed;
    snap.shard_count = static_cast<std::uint32_t>(loop.jobs);
    snap.results.reserve(completed);
    for (std::size_t i = 0; i < completed; ++i) {
      util::StateWriter w;
      codec.encode(*loop.slots[i], w);
      snap.results.emplace_back(i, w.take());
    }
    snap.recorder_blobs = base_recorders;
    for (const std::unique_ptr<obs::Recorder>& child : loop.children) {
      if (!child) continue;
      util::StateWriter w;
      child->save_state(w);
      snap.recorder_blobs.push_back(w.take());
    }
    if (!write_snapshot(opts.path, snap)) {
      throw std::runtime_error("checkpoint: cannot write snapshot to '" +
                               opts.path + "'");
    }
  };

  for (std::size_t wave_begin = start; wave_begin < n_items;) {
    const std::size_t wave_end = std::min(n_items, wave_begin + chunk);
    loop.run_wave(wave_begin, wave_end);
    wave_begin = wave_end;
    if (!durable) continue;

    const bool finished = wave_end == n_items;
    const bool interrupted =
        sigterm_requested() ||
        (opts.abort_after_items != 0 && wave_end >= opts.abort_after_items &&
         !finished);
    if (!finished || interrupted) take_checkpoint(wave_end);
    if (interrupted) throw CampaignInterrupted(opts.path, wave_end);
  }

  // Inherited generations merge first, then this run's shards (finish()).
  if (loop.parent != nullptr) {
    for (const std::string& blob : base_recorders) {
      obs::Recorder base(loop.parent->config());
      util::StateReader r(blob);
      if (!base.load_state(r) || !r.done()) {
        throw std::runtime_error("checkpoint: recorder blob rejected");
      }
      loop.parent->merge_from(std::move(base));
    }
  }
  return loop.finish();
}

}  // namespace tspu::runner
