// The Network: owns all nodes, links, and the simulator clock; moves packets.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "netsim/faults.h"
#include "netsim/node.h"
#include "netsim/sim.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/time.h"
#include "wire/ipv4.h"

namespace tspu::netsim {

class Middlebox;

class Network final : private PacketSink {
 public:
  /// Registers itself as the simulator's packet sink: scheduled packet
  /// deliveries come back through deliver_scheduled without a per-packet
  /// closure ever touching the event heap.
  Network() { sim_.set_packet_sink(this); }

  /// Takes ownership; returns the node's id. The node's address (if nonzero)
  /// becomes resolvable via find_by_addr.
  NodeId add(std::unique_ptr<Node> node);

  /// Creates a bidirectional link with the given one-way propagation delay.
  /// Linking a pair again replaces its delay.
  void link(NodeId a, NodeId b, util::Duration delay = util::Duration::millis(1));

  /// Sets a random-loss probability on the (bidirectional) a—b link. The
  /// paper repeats every measurement >5 times "to account for the TSPU
  /// failure or transient routing changes" (§3) — this is the transient
  /// part, for tests of measurement robustness.
  void set_link_loss(NodeId a, NodeId b, double probability);

  /// Seeds the deterministic RNG behind link loss.
  void seed_loss_rng(std::uint64_t seed) { loss_rng_.reseed(seed); }

  /// Fault plan applied to every link — the way the national fault-matrix
  /// benches degrade the whole topology at once. Each link direction keeps
  /// its own chain state and RNG stream. Overwrites a prior plan.
  void set_default_link_faults(LinkFaultPlan plan);

  /// Rotates the root behind every per-link fault stream, marks the current
  /// sim instant as the trial epoch for flap windows, and resets chain
  /// state + stats. Called by begin_trial(); per-link streams re-derive
  /// statelessly from (root, edge), so lazily-created state stays identical
  /// across job counts.
  void reseed_fault_rngs(std::uint64_t seed);

  /// True when the fault plan's flap windows currently hold the links down
  /// (every link shares the one plan, so every link is down together).
  bool links_down() const;

  const LinkFaultStats& fault_stats() const { return fault_stats_; }

  /// Splices `box` into the existing a—b link: a—box—b. Routing tables on
  /// a and b are rewritten so the box is transparent to routing; `a` becomes
  /// the box's "left" side and `b` its "right" side. Returns the box's id.
  NodeId insert_inline(NodeId a, NodeId b, std::unique_ptr<Middlebox> box);

  /// Sends `pkt` from `from` toward pkt.ip.dst using from's routing table
  /// (hosts and routers) — the normal forwarding entry point.
  void forward(NodeId from, wire::Packet pkt);

  /// Delivers `pkt` directly onto the link from `from` to `to` (used by
  /// middleboxes, which forward by interface rather than by routing).
  void transmit(NodeId from, NodeId to, wire::Packet pkt);

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  RoutingTable& routes(NodeId id) { return tables_.at(id); }

  NodeId find_by_addr(util::Ipv4Addr addr) const;

  Simulator& sim() { return sim_; }
  util::Instant now() const { return sim_.now(); }

  /// Total packets handed to transmit(); a cheap activity counter for tests.
  std::uint64_t packets_transmitted() const { return packets_transmitted_; }

 private:
  struct LinkFaultState {
    GilbertElliottState chain;
    util::Rng rng{0};
    /// Last instant a packet stepped this direction's chain — the idle gap
    /// fed to GilbertElliottState::relax for time-clocked burst decay.
    util::Instant last_packet;
  };

  /// One direction of a link. Records are appended by link() and
  /// insert_inline(); the newest record for a pair wins, and a record with
  /// delay kUnlinked removes the pair.
  struct Link {
    NodeId from;
    NodeId to;
    util::Duration delay;
  };
  static constexpr util::Duration kUnlinked = util::Duration::micros(-1);

  /// The indexed from->to link, or nullptr. Re-indexes first if the
  /// topology changed since the last lookup.
  const Link* find_link(NodeId from, NodeId to);
  /// The from->to link in the index as it stands, or nullptr.
  const Link* indexed_link(NodeId from, NodeId to) const;
  /// Sorts links_ by (from, to), keeps the newest record per pair, drops
  /// removals and rebuilds link_index_.
  void index_links();

  /// The plan governing every link, or nullptr when no fault applies.
  const LinkFaultPlan* fault_plan() const {
    return fault_plan_ ? &*fault_plan_ : nullptr;
  }
  /// Lazily creates the per-direction chain state, seeded statelessly.
  LinkFaultState& fault_state(NodeId from, NodeId to);

  /// Common tail of transmit(): counts the packet and schedules delivery
  /// after `delay`. Every path — clean, duplicated, reordered — funnels
  /// through here, and delivery re-checks flap windows so a link that went
  /// down mid-flight never delivers (TSPU_AUDIT-enforced).
  void deliver(NodeId from, NodeId to, wire::Packet pkt,
               util::Duration delay);

  /// PacketSink: runs at the delivery instant for every scheduled packet —
  /// re-checks flap windows (a link that went down mid-flight eats the
  /// packet) and hands it to the destination node.
  void deliver_scheduled(NodeId from, NodeId to, wire::Packet pkt) override;

  Simulator sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<RoutingTable> tables_;
  // Directed links (delays are symmetric today, but records are per
  // direction so asymmetric-latency scenarios stay possible). transmit()
  // resolves a link per packet hop, the simulator's hottest lookup: the
  // index links_[0, indexed_) is sorted by (from, to), and node n's links
  // are links_[link_index_[n], link_index_[n + 1]), so a hop searches only
  // its own node's links. Topology changes append past indexed_ and the
  // next lookup re-indexes, so a build pays one sort rather than a sorted
  // insert per link.
  std::vector<Link> links_;
  // One offset per node that existed at the last re-index, plus the end.
  std::vector<std::uint32_t> link_index_{0};
  std::size_t indexed_ = 0;
  util::FlatMap<std::pair<NodeId, NodeId>, double> loss_;
  util::Rng loss_rng_{0x105511ull};
  // Fault-injection layer (netsim/faults.h). Chain/RNG state is kept per
  // direction, created lazily with order-independent seeds.
  std::optional<LinkFaultPlan> fault_plan_;
  util::FlatMap<std::pair<NodeId, NodeId>, LinkFaultState> fault_states_;
  std::uint64_t fault_seed_root_ = 0xfa017ull;
  util::Instant fault_epoch_;
  LinkFaultStats fault_stats_;
  // Address -> node for find_by_addr (topology builds and tests).
  util::FlatMap<util::Ipv4Addr, NodeId> by_addr_;
  std::uint64_t packets_transmitted_ = 0;
};

}  // namespace tspu::netsim
