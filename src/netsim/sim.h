// Discrete-event simulator with a virtual clock.
//
// Everything in the testbed — link delays, TSPU conntrack timeouts, the
// paper's "SLEEP then send trigger" experiments — runs on this clock, so a
// 480-second timeout estimation finishes in microseconds of wall time and is
// bit-reproducible.
//
// The queue is typed for the hot path: packet deliveries (the overwhelming
// majority of events) are small POD records dispatched straight to the
// registered PacketSink, and the remaining generic callbacks (timeouts,
// trial quiesce, audit bookkeeping) live in fixed-capacity InplaceFunctions.
//
// Events are queued in one FIFO lane per distinct delay. A simulation uses
// few delays (link delays of 1 ms and 500 µs, 1 s retransmit timers), and
// because now() never decreases and the sequence counter only grows, every
// lane is already in (at, seq) order: scheduling is an append, and the next
// event is the smallest lane head, picked through a small min-heap over the
// non-empty lanes (jittered links can keep thousands of lanes live). Lanes
// are ring buffers of 24-byte entries that index into slab storage with
// free lists; a drained lane keeps its capacity for its delay's next event
// or, once recycled, for a new delay, so a warm steady state schedules and
// dispatches events without any heap allocation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/node.h"
#include "util/inplace_function.h"
#include "util/time.h"
#include "wire/ipv4.h"

namespace tspu::netsim {

/// Receiver for scheduled packet deliveries. Network implements this; the
/// indirection keeps Simulator ignorant of links and flap windows while the
/// queue stays free of per-packet closures.
class PacketSink {
 public:
  virtual void deliver_scheduled(NodeId from, NodeId to, wire::Packet pkt) = 0;

 protected:
  ~PacketSink() = default;
};

class Simulator {
 public:
  /// Generic callbacks must fit 64 inline bytes — a this-pointer plus a few
  /// keys. Oversized captures are a compile error, not a hidden allocation.
  using Callback = util::InplaceFunction<64, void()>;

  util::Instant now() const { return now_; }

  /// Schedules `fn` to run at now() + delay. Events at the same instant run
  /// in scheduling order (stable FIFO) regardless of their kind — packet
  /// and callback events share one sequence counter.
  void schedule(util::Duration delay, Callback fn);

  /// Schedules delivery of `pkt` on the from->to link at now() + delay via
  /// the registered PacketSink — the allocation-free fast path for the
  /// per-hop event that dominates every bench run.
  void schedule_packet(util::Duration delay, NodeId from, NodeId to,
                       wire::Packet pkt);

  /// Registers the receiver for schedule_packet events. Exactly one sink
  /// (the owning Network) is expected; set before any packet is scheduled.
  void set_packet_sink(PacketSink* sink) { sink_ = sink; }

  /// Runs events until the queue drains. Returns the number processed.
  std::size_t run_until_idle();

  /// Runs events with timestamps <= now() + d, then advances the clock to
  /// exactly now() + d (even if idle earlier). This is the simulated "sleep".
  void run_for(util::Duration d);

  /// Number of scheduled events not yet dispatched.
  std::size_t pending() const;

  /// Registers an invariant sweep for debug builds (util::kAuditEnabled);
  /// release builds never call hooks. Network registers one per inline
  /// middlebox. After every processed event ONE hook runs (deterministic
  /// round-robin), and each middlebox's sweep itself audits a bounded
  /// rotating slice of its state — keeping per-event cost O(1) amortized
  /// while every device and every table entry is audited continually.
  void add_audit_hook(Callback hook) {
    audit_hooks_.push_back(std::move(hook));
  }

 private:
  enum class EventKind : std::uint8_t { kCallback, kPacket };

  /// What a lane holds: timestamp, FIFO tiebreak, and a slab slot. Payloads
  /// (closures, packets) stay put in their slabs.
  struct Entry {
    util::Instant at;
    std::uint64_t seq;
    std::uint32_t slot;
    EventKind kind;
  };

  /// Ring buffer of the pending events scheduled with one delay, oldest
  /// first. The capacity is a power of two and is kept when the lane drains.
  struct Lane {
    std::vector<Entry> ring;
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    const Entry& front() const { return ring[head]; }
    void push(const Entry& e);
    void pop_front();
  };

  /// Min-heap node for a non-empty lane, keyed by a copy of its head.
  struct LaneHead {
    util::Instant at;
    std::uint64_t seq;
    std::uint32_t lane;
    bool operator>(const LaneHead& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  struct PacketEvent {
    NodeId from;
    NodeId to;
    wire::Packet pkt;
  };

  void enqueue(util::Duration delay, std::uint32_t slot, EventKind kind);
  /// Unmaps every empty lane and frees it, with its ring capacity, for
  /// reuse by new delays.
  void recycle_empty_lanes();
  /// Removes and returns the earliest pending event (by at, then seq).
  Entry pop_next();
  /// Restores the heap after the front head's key grew.
  void sift_down_top();
  void run_audit_hooks() const;
  void dispatch(const Entry& entry);

  util::Instant now_;
  std::uint64_t next_seq_ = 0;
  PacketSink* sink_ = nullptr;
  /// Mapped lanes beyond which a new delay first recycles the empty ones:
  /// recurring delays keep their lane, and jittered delays stay bounded by
  /// twice the number of non-empty lanes.
  static constexpr std::size_t kMaxMappedLanes = 64;

  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> free_lanes_;
  /// Lanes by delay, sorted by delay. A drained lane stays mapped until
  /// recycle_empty_lanes.
  std::vector<std::pair<util::Duration, std::uint32_t>> lane_by_delay_;
  std::vector<LaneHead> heads_;  // min-heap: earliest (at, seq) at front
  // Slab storage + free lists. Slots are recycled before dispatch so a
  // re-entrant schedule (deliver -> receive -> transmit) reuses the slot it
  // was dispatched from; capacity reaches a high-water mark during warm-up
  // and steady state never grows either vector.
  std::vector<PacketEvent> packet_slab_;
  std::vector<std::uint32_t> packet_free_;
  std::vector<Callback> callback_slab_;
  std::vector<std::uint32_t> callback_free_;
  std::vector<Callback> audit_hooks_;
  /// Round-robin index into audit_hooks_ (mutable: auditing observes state,
  /// never mutates simulation-visible state).
  mutable std::size_t next_audit_hook_ = 0;
};

}  // namespace tspu::netsim
