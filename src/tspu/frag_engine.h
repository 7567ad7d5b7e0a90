// The TSPU's IP-fragment handling (§5.3.1): buffer fragments, forward them
// individually (never reassembled) once the datagram is complete, rewriting
// every fragment's TTL to the TTL the FIRST (offset-0) fragment arrived with.
//
// Restrictions enforced, all observed in the paper and all used as remote
// fingerprints in §7.2:
//  * duplicate or overlapping fragment  -> whole queue discarded
//  * more than 45 fragments in a queue  -> whole queue discarded
//  * queue incomplete after ~5 seconds  -> whole queue discarded
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "tspu/budget.h"
#include "tspu/timeouts.h"
#include "util/time.h"
#include "wire/fragment.h"
#include "wire/ipv4.h"

namespace tspu::core {

struct FragEngineStats {
  std::uint64_t fragments_buffered = 0;
  std::uint64_t queues_released = 0;
  std::uint64_t queues_discarded_overlap = 0;
  std::uint64_t queues_discarded_limit = 0;
  std::uint64_t queues_discarded_timeout = 0;
  std::uint64_t queues_discarded_overlong = 0;
  // ---- budget accounting (zero while unbounded) ----
  std::uint64_t queues_evicted = 0;      ///< whole queues evicted at capacity
  std::uint64_t fragments_rejected = 0;  ///< fragments refused admission
};

class FragmentEngine {
 public:
  /// `budget` caps in-flight queues (max_entries) and the total buffered
  /// fragment payload (max_bytes); `overload` carries the hysteresis band;
  /// `evict_seed` starts the kEvictRandom stream.
  explicit FragmentEngine(FragmentTimeouts cfg, TableBudget budget = {},
                          OverloadPolicy overload = {},
                          std::uint64_t evict_seed = 0xf4a6ull)
      : cfg_(cfg), guard_(obs::Layer::kFrag, budget, overload, evict_seed) {}

  /// Reseeds the eviction RNG stream and drops the overload latch
  /// (Device::reseed, trial boundaries).
  void reseed_eviction(std::uint64_t seed) { guard_.reseed(seed); }

  bool overloaded() const { return guard_.overloaded(); }

  /// Feeds one fragment. Returns the packets to forward NOW: empty while
  /// buffering or discarding; the full fragment set (TTL-rewritten, in
  /// arrival order) when the last hole fills. When the budget REJECTS the
  /// fragment (RejectNew at capacity), returns the original fragment and
  /// sets *rejected — the device then applies its overload policy to it
  /// instead of treating it as a release.
  std::vector<wire::Packet> push(wire::Packet frag, util::Instant now,
                                 bool* rejected = nullptr);

  /// Discards queues older than the 5-second limit. push() arranges to call
  /// this lazily — exactly when some queue has actually timed out — instead
  /// of sweeping every queue on every fragment, which made fragmentation
  /// scans quadratic in in-flight queues. Explicit calls still sweep fully.
  void expire(util::Instant now);

  /// TSPU_AUDIT sweep (debug builds): every queue holds at most the paper's
  /// 45-fragment limit, ranges mirror the buffered fragments with no
  /// overlaps, and no queue started in the future.
  void audit(util::Instant now) const;

  std::size_t pending_queues() const { return queues_.size(); }
  /// Total buffered fragment payload bytes — what max_bytes polices.
  std::size_t buffered_bytes() const { return buffered_bytes_; }
  const FragEngineStats& stats() const { return stats_; }

 private:
  struct Queue {
    std::vector<wire::Packet> fragments;  // arrival order
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    util::Instant started;
    std::optional<std::uint8_t> first_ttl;  ///< TTL of the offset-0 fragment
    bool saw_last = false;
    std::uint32_t total_len = 0;
    std::size_t bytes = 0;  ///< buffered payload bytes (budget accounting)
  };

  bool complete(const Queue& q) const;
  void discard(const wire::FragmentKey& key, util::Instant now,
               const char* reason, std::uint64_t& stat);
  /// Admission control before buffering: sweeps timed-out queues, then at
  /// capacity evicts whole queues per policy or rejects the fragment.
  bool make_room(util::Instant now, bool new_queue, std::size_t add_bytes);
  /// Evicts one whole queue (counted + traced with `reason`).
  void evict_one(util::Instant now, const char* reason);
  /// Publishes occupancy through the budget guard, and the buffered-bytes
  /// gauge.
  void note_occupancy(util::Instant now);

  FragmentTimeouts cfg_;
  FragEngineStats stats_;
  BudgetGuard guard_;
  std::size_t buffered_bytes_ = 0;
  std::map<wire::FragmentKey, Queue> queues_;
  /// Start time of the oldest queue at the last full sweep — the lazy-expiry
  /// trigger. May be stale (pointing at an already-erased queue) after
  /// release/discard, which only ever makes a sweep run EARLY; a sweep runs
  /// no later than the first push at which any queue has timed out, because
  /// the oldest queue times out no later than any other.
  std::optional<util::Instant> oldest_started_;
  /// Resume point for audit()'s bounded rotating sweep (Debug builds only).
  mutable wire::FragmentKey audit_cursor_{};
};

}  // namespace tspu::core
