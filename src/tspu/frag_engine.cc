#include "tspu/frag_engine.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"

namespace tspu::core {
namespace {

std::string frag_flow_str(const wire::FragmentKey& key) {
  return key.src.str() + ">" + key.dst.str() +
         " id=" + std::to_string(key.ip_id);
}

}  // namespace

void FragmentEngine::note_occupancy(util::Instant now) {
  // Gated on bounded(): an unbounded engine keeps its obs output
  // byte-identical to the pre-budget device.
  if (!guard_.bounded()) return;
  // Reconcile lazy expiry before reading occupancy: queues past the timeout
  // but not yet swept must not inflate the gauge or latch overload.enter on
  // dead state. Recursion bottoms out — expire() recomputes oldest_started_
  // over survivors, so its own note_occupancy call sees no expired queue.
  if (oldest_started_ && now - *oldest_started_ > cfg_.queue_timeout) {
    expire(now);
  }
  guard_.publish(queues_.size(), now);
  if (obs::Recorder* rec = obs::recorder()) {
    rec->metrics.gauge("tspu.frag.buffered_bytes")
        .set_max(static_cast<std::int64_t>(buffered_bytes_));
  }
}

void FragmentEngine::evict_one(util::Instant now, const char* reason) {
  const auto victim = guard_.victim(queues_, &Queue::started);
  buffered_bytes_ -= victim->second.bytes;
  ++stats_.queues_evicted;
  TSPU_OBS_COUNT("tspu.frag.evicted");
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kFrag, "frag.evict", now,
                     frag_flow_str(victim->first), reason);
  }
  queues_.erase(victim);
  // Shrink re-checks the hysteresis band: an eviction can carry occupancy
  // through exit_fraction, and without this the latch only ever re-evaluated
  // on admission — a shrink-only workload stayed "overloaded" forever.
  note_occupancy(now);
}

bool FragmentEngine::make_room(util::Instant now, bool new_queue,
                               std::size_t add_bytes) {
  const TableBudget& budget = guard_.budget();
  const bool over_entries = new_queue && budget.max_entries != 0 &&
                            queues_.size() >= budget.max_entries;
  const bool over_bytes = budget.max_bytes != 0 &&
                          buffered_bytes_ + add_bytes > budget.max_bytes;
  if (!over_entries && !over_bytes &&
      !(budget.policy == EvictionPolicy::kRejectNew && new_queue &&
        guard_.overloaded())) {
    return true;
  }
  // Reclaim timed-out queues before sacrificing live ones.
  expire(now);
  if (budget.policy == EvictionPolicy::kRejectNew) {
    const bool still_over_entries =
        new_queue && budget.max_entries != 0 &&
        (guard_.overloaded() || queues_.size() >= budget.max_entries);
    const bool still_over_bytes =
        budget.max_bytes != 0 &&
        buffered_bytes_ + add_bytes > budget.max_bytes;
    if (still_over_entries || still_over_bytes) {
      ++stats_.fragments_rejected;
      guard_.reject(now, queues_.size(),
                    still_over_bytes ? "byte-budget" : "entry-budget");
      return false;
    }
    return true;
  }
  if (new_queue && budget.max_entries != 0) {
    while (queues_.size() >= budget.max_entries) {
      evict_one(now, "entry-budget");
    }
  }
  if (budget.max_bytes != 0) {
    while (buffered_bytes_ + add_bytes > budget.max_bytes &&
           !queues_.empty()) {
      evict_one(now, "byte-budget");
    }
    if (buffered_bytes_ + add_bytes > budget.max_bytes) {
      // A single fragment larger than the whole byte budget: reject it —
      // occupancy may never exceed the budget, whatever the policy.
      ++stats_.fragments_rejected;
      guard_.reject(now, queues_.size(), "byte-budget");
      return false;
    }
  }
  note_occupancy(now);
  return true;
}

void FragmentEngine::audit(util::Instant now) const {
  // Bounded rotating sweep, mirroring ConnTracker::audit: per-event cost
  // stays O(1) amortized even when a scan keeps many queues in flight.
  constexpr std::size_t kAuditSlice = 8;
  guard_.audit(queues_.size(), buffered_bytes_);
  auto it = queues_.lower_bound(audit_cursor_);
  for (std::size_t n = 0; n < kAuditSlice && !queues_.empty(); ++n) {
    if (it == queues_.end()) it = queues_.begin();
    const auto& [key, q] = *it;
    ++it;
    // §5.3.1: the 46th fragment discards the queue, so a surviving queue can
    // never hold more than max_fragments (45) entries.
    TSPU_AUDIT(q.fragments.size() <= cfg_.max_fragments,
               "fragment queue exceeds the paper's 45-fragment limit");
    TSPU_AUDIT(q.ranges.size() == q.fragments.size(),
               "range bookkeeping out of sync with buffered fragments");
    TSPU_AUDIT(q.started <= now, "fragment queue started in the future");
    std::size_t queue_bytes = 0;
    for (const wire::Packet& p : q.fragments) queue_bytes += p.payload.size();
    TSPU_AUDIT(queue_bytes == q.bytes,
               "per-queue byte accounting out of sync with fragments");
    auto sorted = q.ranges;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      TSPU_AUDIT(sorted[i].second <= sorted[i + 1].first,
                 "overlapping fragments survived in a queue");
    }
    if (q.saw_last) {
      for (const auto& range : sorted) {
        TSPU_AUDIT(range.second <= q.total_len,
                   "fragment extends past the datagram's total length");
      }
    }
  }
  audit_cursor_ = it == queues_.end() ? wire::FragmentKey{} : it->first;
}

void FragmentEngine::expire(util::Instant now) {
  oldest_started_.reset();
  bool erased = false;
  for (auto it = queues_.begin(); it != queues_.end();) {
    if (now - it->second.started > cfg_.queue_timeout) {
      ++stats_.queues_discarded_timeout;
      TSPU_OBS_COUNT("tspu.frag.discard.timeout");
      if (obs::tracing()) {
        obs::trace_event(obs::Layer::kFrag, "frag.discard", now,
                         frag_flow_str(it->first), "age");
      }
      buffered_bytes_ -= it->second.bytes;
      it = queues_.erase(it);
      erased = true;
    } else {
      if (!oldest_started_ || it->second.started < *oldest_started_) {
        oldest_started_ = it->second.started;
      }
      ++it;
    }
  }
  if (erased) note_occupancy(now);
}

bool FragmentEngine::complete(const Queue& q) const {
  if (!q.saw_last) return false;
  auto ranges = q.ranges;
  std::sort(ranges.begin(), ranges.end());
  std::uint32_t cursor = 0;
  for (const auto& [lo, hi] : ranges) {
    if (lo != cursor) return false;
    cursor = hi;
  }
  return cursor == q.total_len;
}

void FragmentEngine::discard(const wire::FragmentKey& key, util::Instant now,
                             const char* reason, std::uint64_t& stat) {
  if (auto it = queues_.find(key); it != queues_.end()) {
    buffered_bytes_ -= it->second.bytes;
    queues_.erase(it);
  }
  ++stat;
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kFrag, "frag.discard", now,
                     frag_flow_str(key), reason);
  }
  note_occupancy(now);
}

std::vector<wire::Packet> FragmentEngine::push(wire::Packet frag,
                                               util::Instant now,
                                               bool* rejected) {
  // Lazy expiry: sweep only when the oldest queue has actually timed out.
  // The oldest queue times out no later than any other, so the sweep runs
  // at exactly the first push at which the eager per-push sweep would have
  // discarded anything — discard counts and timing are identical, but a
  // burst of N fragments costs O(N) instead of O(N x queues).
  if (oldest_started_ && now - *oldest_started_ > cfg_.queue_timeout) {
    expire(now);
  }

  const wire::FragmentKey key = wire::fragment_key(frag.ip);
  if (guard_.bounded() &&
      !make_room(now, queues_.find(key) == queues_.end(),
                 frag.payload.size())) {
    // Admission refused: hand the fragment back to the device so the
    // overload policy (fail-open forward / fail-closed drop) decides.
    if (rejected != nullptr) *rejected = true;
    std::vector<wire::Packet> back;
    back.push_back(std::move(frag));
    return back;
  }
  Queue& q = queues_[key];
  if (q.fragments.empty()) {
    q.started = now;
    if (!oldest_started_ || now < *oldest_started_) oldest_started_ = now;
  }

  const std::uint32_t off = frag.ip.frag_offset;
  const std::uint32_t end =
      off + static_cast<std::uint32_t>(frag.payload.size());

  // Duplicate or overlapping fragment poisons the whole queue (§5.3.1) —
  // unlike RFC 5722's "ignore and keep" recommendation, which is one of the
  // fingerprints distinguishing the TSPU from other stacks (§7.2).
  if (wire::overlaps_any(q.ranges, off, end)) {
    discard(key, now, "overlap", stats_.queues_discarded_overlap);
    TSPU_OBS_COUNT("tspu.frag.discard.overlap");
    return {};
  }

  // 46th fragment discards everything, 45 is accepted (§5.3.1). This is the
  // per-queue count limit of the budget accounting; the trace reason
  // distinguishes it from age and byte-budget discards.
  if (q.fragments.size() + 1 > cfg_.max_fragments) {
    discard(key, now, "count-limit", stats_.queues_discarded_limit);
    TSPU_OBS_COUNT("tspu.frag.discard.limit");
    return {};
  }

  // A fragment extending past an already-announced total length — or a
  // "last" fragment whose end undercuts data already buffered — makes the
  // datagram geometry unsatisfiable. Poison-on-ambiguity, like overlaps:
  // previously this inconsistency only tripped a Debug TSPU_AUDIT while the
  // broken queue silently survived in Release.
  const bool overlong_tail = q.saw_last && end > q.total_len;
  const bool shrinking_last =
      !frag.ip.more_fragments &&
      std::any_of(q.ranges.begin(), q.ranges.end(),
                  [end](const auto& r) { return r.second > end; });
  if (overlong_tail || shrinking_last) {
    discard(key, now, "overlong", stats_.queues_discarded_overlong);
    TSPU_OBS_COUNT("tspu.frag.discard.overlong");
    return {};
  }

  if (frag.ip.is_first_fragment()) q.first_ttl = frag.ip.ttl;
  if (!frag.ip.more_fragments) {
    q.saw_last = true;
    q.total_len = end;
  }
  q.ranges.emplace_back(off, end);
  q.bytes += frag.payload.size();
  buffered_bytes_ += frag.payload.size();
  q.fragments.push_back(std::move(frag));
  ++stats_.fragments_buffered;
  TSPU_OBS_COUNT("tspu.frag.buffered");
  // Publish on EVERY byte-accounted mutation, not just the push that creates
  // a fresh queue: fragments appended to an existing queue grow
  // buffered_bytes_ too, and gating on size()==1 under-reported byte-budget
  // growth (and starved the latch of byte-driven occupancy changes).
  note_occupancy(now);

  if (!complete(q)) {
    if constexpr (util::kAuditEnabled) audit(now);
    return {};
  }

  // Release: forward every buffered fragment individually, all carrying the
  // first fragment's arrival TTL (Figure 3).
  std::vector<wire::Packet> out = std::move(q.fragments);
  const std::uint8_t ttl = q.first_ttl.value_or(out.front().ip.ttl);
  for (wire::Packet& p : out) p.ip.ttl = ttl;
  buffered_bytes_ -= q.bytes;
  queues_.erase(key);
  note_occupancy(now);
  ++stats_.queues_released;
  TSPU_OBS_COUNT("tspu.frag.released");
  if (obs::Recorder* rec = obs::recorder()) {
    rec->metrics.histogram("tspu.frag.release_size").observe(out.size());
  }
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kFrag, "frag.release", now,
                     frag_flow_str(key),
                     std::to_string(out.size()) + " fragments");
  }
  if constexpr (util::kAuditEnabled) audit(now);
  return out;
}

}  // namespace tspu::core
