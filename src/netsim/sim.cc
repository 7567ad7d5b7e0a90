#include "netsim/sim.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/check.h"

namespace tspu::netsim {
namespace {

/// Heap order for lane heads: the std heap algorithms keep the greatest
/// element at the front, so "later" ordering puts the earliest (at, seq)
/// there.
constexpr auto kLater = [](const auto& a, const auto& b) { return a > b; };

/// Position of `delay` in a delay-sorted lane index: its entry, or where
/// one would be inserted.
template <typename Index>
auto lane_position(Index& index, util::Duration delay) {
  return std::lower_bound(
      index.begin(), index.end(), delay,
      [](const auto& entry, util::Duration d) { return entry.first < d; });
}

}  // namespace

void Simulator::Lane::push(const Entry& e) {
  if (size == ring.size()) {
    // Full (or never used): double the ring, unrolled so the oldest entry
    // lands at index 0. Only warm-up and deeper-than-ever backlogs get here.
    std::vector<Entry> grown(ring.empty() ? 16 : ring.size() * 2);
    for (std::uint32_t i = 0; i < size; ++i)
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = e;
  ++size;
}

void Simulator::Lane::pop_front() {
  head = static_cast<std::uint32_t>((head + 1) & (ring.size() - 1));
  --size;
}

std::size_t Simulator::pending() const {
  std::size_t n = 0;
  for (const LaneHead& h : heads_) n += lanes_[h.lane].size;
  return n;
}

void Simulator::enqueue(util::Duration delay, std::uint32_t slot,
                        EventKind kind) {
  const Entry e{now_ + delay, next_seq_++, slot, kind};
  auto it = lane_position(lane_by_delay_, delay);
  if (it == lane_by_delay_.end() || it->first != delay) {
    // Sweep only when at least half the mapped lanes are empty, so the
    // sweep's cost is covered by the lanes it frees.
    if (lane_by_delay_.size() >= kMaxMappedLanes &&
        lane_by_delay_.size() >= 2 * heads_.size()) {
      recycle_empty_lanes();
      it = lane_position(lane_by_delay_, delay);
    }
    std::uint32_t fresh;
    if (!free_lanes_.empty()) {
      fresh = free_lanes_.back();
      free_lanes_.pop_back();
    } else {
      fresh = static_cast<std::uint32_t>(lanes_.size());
      lanes_.emplace_back();
    }
    it = lane_by_delay_.insert(it, {delay, fresh});
  }
  Lane& lane = lanes_[it->second];
  lane.push(e);
  // A lane that already held events keeps its head, and so its heap key.
  if (lane.size == 1) {
    heads_.push_back(LaneHead{e.at, e.seq, it->second});
    std::push_heap(heads_.begin(), heads_.end(), kLater);
  }
}

void Simulator::recycle_empty_lanes() {
  std::erase_if(lane_by_delay_, [this](const auto& entry) {
    if (lanes_[entry.second].size > 0) return false;
    free_lanes_.push_back(entry.second);
    return true;
  });
}

Simulator::Entry Simulator::pop_next() {
  LaneHead& top = heads_.front();
  Lane& lane = lanes_[top.lane];
  const Entry e = lane.front();
  lane.pop_front();
  if (lane.size > 0) {
    top.at = lane.front().at;
    top.seq = lane.front().seq;
  } else {
    // Drained: the lane stays mapped to its delay (most delays recur at
    // once) until recycle_empty_lanes hands it to a new delay.
    top = heads_.back();
    heads_.pop_back();
  }
  sift_down_top();
  return e;
}

void Simulator::sift_down_top() {
  // The root's key only grew: move it down until no child is earlier. One
  // pass instead of pop_heap + push_heap, and usually one comparison, since
  // the lane that just ran tends to stay earliest.
  const std::size_t n = heads_.size();
  if (n == 0) return;
  std::size_t i = 0;
  const LaneHead moving = heads_[0];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heads_[child] > heads_[child + 1]) ++child;
    if (!(moving > heads_[child])) break;
    heads_[i] = heads_[child];
    i = child;
  }
  heads_[i] = moving;
}

void Simulator::schedule(util::Duration delay, Callback fn) {
  TSPU_DCHECK(delay >= util::Duration::micros(0),
              "events cannot be scheduled in the past");
  std::uint32_t slot;
  if (!callback_free_.empty()) {
    slot = callback_free_.back();
    callback_free_.pop_back();
    callback_slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(callback_slab_.size());
    callback_slab_.push_back(std::move(fn));
  }
  enqueue(delay, slot, EventKind::kCallback);
}

void Simulator::schedule_packet(util::Duration delay, NodeId from, NodeId to,
                                wire::Packet pkt) {
  TSPU_DCHECK(delay >= util::Duration::micros(0),
              "events cannot be scheduled in the past");
  TSPU_DCHECK(sink_ != nullptr, "schedule_packet requires a PacketSink");
  std::uint32_t slot;
  if (!packet_free_.empty()) {
    slot = packet_free_.back();
    packet_free_.pop_back();
    PacketEvent& ev = packet_slab_[slot];
    ev.from = from;
    ev.to = to;
    // Move-assigning into the recycled slot lets the slot's previous payload
    // buffer return to the pool and the new payload move in — no copy.
    ev.pkt = std::move(pkt);
  } else {
    slot = static_cast<std::uint32_t>(packet_slab_.size());
    packet_slab_.push_back(PacketEvent{from, to, std::move(pkt)});
  }
  enqueue(delay, slot, EventKind::kPacket);
}

void Simulator::run_audit_hooks() const {
  if constexpr (util::kAuditEnabled) {
    if (audit_hooks_.empty()) return;
    // One hook per event, round-robin: with H devices each is audited every
    // H events, which keeps Debug wall-time linear in events while still
    // sweeping all middlebox state continually.
    audit_hooks_[next_audit_hook_ % audit_hooks_.size()]();
    ++next_audit_hook_;
  }
}

void Simulator::dispatch(const Entry& entry) {
  // Free the slot BEFORE invoking: re-entrant schedules (deliver -> receive
  // -> transmit -> schedule_packet) immediately reuse it, which is what
  // pins the slab at its warm-up high-water mark.
  if (entry.kind == EventKind::kPacket) {
    PacketEvent& slot = packet_slab_[entry.slot];
    const NodeId from = slot.from;
    const NodeId to = slot.to;
    wire::Packet pkt = std::move(slot.pkt);
    packet_free_.push_back(entry.slot);
    sink_->deliver_scheduled(from, to, std::move(pkt));
  } else {
    Callback fn = std::move(callback_slab_[entry.slot]);
    callback_free_.push_back(entry.slot);
    fn();
  }
}

std::size_t Simulator::run_until_idle() {
  std::size_t processed = 0;
  while (!heads_.empty()) {
    const Entry ev = pop_next();
    TSPU_DCHECK(ev.at >= now_, "event timestamps must be monotone");
    now_ = ev.at;
    dispatch(ev);
    run_audit_hooks();
    ++processed;
  }
  TSPU_OBS_COUNT_N("netsim.sim_events", processed);
  return processed;
}

void Simulator::run_for(util::Duration d) {
  const util::Instant deadline = now_ + d;
  std::size_t processed = 0;
  while (!heads_.empty() && heads_.front().at <= deadline) {
    const Entry ev = pop_next();
    TSPU_DCHECK(ev.at >= now_, "event timestamps must be monotone");
    now_ = ev.at;
    dispatch(ev);
    run_audit_hooks();
    ++processed;
  }
  TSPU_OBS_COUNT_N("netsim.sim_events", processed);
  now_ = deadline;
}

}  // namespace tspu::netsim
