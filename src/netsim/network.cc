#include "netsim/network.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "netsim/middlebox.h"
#include "obs/obs.h"
#include "util/check.h"
#include "wire/ipv4.h"

namespace tspu::netsim {
namespace {

/// Flight-recorder line for one link event; packet bytes ride along as hex
/// so trace2txt can re-render them with pcap::describe. Callers guard with
/// obs::tracing() BEFORE calling: the hex serialization and the name
/// concatenation below must never run on the non-traced hot path.
void trace_link_event(const char* kind, const Network& net, NodeId from,
                      NodeId to, util::Instant now, const wire::Packet& pkt) {
  obs::trace_event(obs::Layer::kNetsim, kind, now, {},
                   net.node(from).name() + ">" + net.node(to).name(),
                   obs::hex_encode(wire::serialize(pkt)));
}

}  // namespace

void RoutingTable::add(util::Ipv4Prefix prefix, NodeId next_hop) {
  // Keep entries sorted by (descending length, ascending base); insert after
  // equal keys so the earliest-added of two identical prefixes keeps winning.
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const util::Ipv4Prefix& p, const Entry& e) {
        if (p.length() != e.prefix.length()) return p.length() > e.prefix.length();
        return p.base() < e.prefix.base();
      });
  entries_.insert(pos, Entry{prefix, next_hop});
}

NodeId RoutingTable::lookup(util::Ipv4Addr dst) const {
  // One binary search per distinct prefix length, longest first. Prefixes of
  // one length are disjoint, so the only candidate is the entry whose base
  // equals dst masked to that length.
  const auto begin = entries_.begin();
  const auto end = entries_.end();
  for (auto group = begin; group != end;) {
    const int len = group->prefix.length();
    const auto group_end = std::partition_point(
        group, end,
        [len](const Entry& e) { return e.prefix.length() == len; });
    const util::Ipv4Addr masked = util::Ipv4Prefix(dst, len).base();
    const auto it = std::lower_bound(
        group, group_end, masked,
        [](const Entry& e, util::Ipv4Addr base) { return e.prefix.base() < base; });
    if (it != group_end && it->prefix.base() == masked) return it->next_hop;
    group = group_end;
  }
  return default_;
}

void RoutingTable::rewrite_next_hop(NodeId old_hop, NodeId new_hop) {
  for (Entry& e : entries_) {
    if (e.next_hop == old_hop) e.next_hop = new_hop;
  }
  if (default_ == old_hop) default_ = new_hop;
}

NodeId Network::add(std::unique_ptr<Node> node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->id_ = id;
  node->net_ = this;
  if (!node->addr().is_zero()) {
    by_addr_[node->addr()] = id;
  }
  nodes_.push_back(std::move(node));
  tables_.emplace_back();
  return id;
}

void Network::link(NodeId a, NodeId b, util::Duration delay) {
  if (a >= nodes_.size() || b >= nodes_.size())
    throw std::invalid_argument("link: no such node");
  if (delay < util::Duration::micros(0))
    throw std::invalid_argument("link: negative delay");
  links_.push_back(Link{a, b, delay});
  links_.push_back(Link{b, a, delay});
}

const Network::Link* Network::indexed_link(NodeId from, NodeId to) const {
  if (std::size_t{from} + 1 >= link_index_.size()) return nullptr;
  const Link* first = links_.data() + link_index_[from];
  const Link* last = links_.data() + link_index_[from + 1];
  const Link* it = std::lower_bound(
      first, last, to, [](const Link& l, NodeId id) { return l.to < id; });
  return it != last && it->to == to ? it : nullptr;
}

const Network::Link* Network::find_link(NodeId from, NodeId to) {
  if (indexed_ != links_.size()) index_links();
  return indexed_link(from, to);
}

void Network::index_links() {
  // Stable, so the newest of a pair's records stays last in its run.
  std::stable_sort(links_.begin(), links_.end(),
                   [](const Link& x, const Link& y) {
                     return std::tie(x.from, x.to) < std::tie(y.from, y.to);
                   });
  auto out = links_.begin();
  for (auto it = links_.begin(); it != links_.end(); ++it) {
    const auto next = it + 1;
    if (next != links_.end() && next->from == it->from && next->to == it->to)
      continue;  // superseded by a newer record
    if (it->delay != kUnlinked) *out++ = *it;
  }
  links_.erase(out, links_.end());
  indexed_ = links_.size();
  link_index_.assign(nodes_.size() + 1, 0);
  for (const Link& l : links_) ++link_index_[l.from + 1];
  std::partial_sum(link_index_.begin(), link_index_.end(),
                   link_index_.begin());
}

NodeId Network::insert_inline(NodeId a, NodeId b,
                              std::unique_ptr<Middlebox> box) {
  // Resolve a->b as it stands without re-indexing, so a build that splices
  // boxes between link() calls still sorts once: the newest un-indexed
  // record wins, else the index.
  const Link* edge = nullptr;
  for (auto it = links_.rbegin(); it != links_.rend() - indexed_; ++it) {
    if (it->from == a && it->to == b) {
      edge = &*it;
      break;
    }
  }
  if (edge == nullptr) edge = indexed_link(a, b);
  if (edge == nullptr || edge->delay == kUnlinked)
    throw std::invalid_argument("insert_inline: nodes are not linked");
  const util::Duration delay = edge->delay;
  links_.push_back(Link{a, b, kUnlinked});
  links_.push_back(Link{b, a, kUnlinked});

  Middlebox* raw = box.get();
  const NodeId m = add(std::move(box));
  raw->left_ = a;
  raw->right_ = b;
  // Audit the box's internal invariants after every simulator step in debug
  // builds. `raw` is owned by nodes_, which outlives the simulator queue.
  sim_.add_audit_hook([raw, this] { raw->audit_state(sim_.now()); });
  // The box adds no modeled latency of its own; split the original delay.
  link(a, m, delay / 2);
  link(m, b, delay - delay / 2);
  tables_[a].rewrite_next_hop(b, m);
  tables_[b].rewrite_next_hop(a, m);
  return m;
}

void Network::forward(NodeId from, wire::Packet pkt) {
  const NodeId next = tables_.at(from).lookup(pkt.ip.dst);
  if (next == kInvalidNode) return;  // no route: silently dropped
  transmit(from, next, std::move(pkt));
}

void Network::set_link_loss(NodeId a, NodeId b, double probability) {
  loss_[{a, b}] = probability;
  loss_[{b, a}] = probability;
}

void Network::set_default_link_faults(LinkFaultPlan plan) {
  fault_plan_ = std::move(plan);
}

void Network::reseed_fault_rngs(std::uint64_t seed) {
  fault_seed_root_ = seed;
  fault_epoch_ = sim_.now();
  fault_states_ = {};
  fault_stats_ = {};
}

Network::LinkFaultState& Network::fault_state(NodeId from, NodeId to) {
  auto* existing = fault_states_.find({from, to});
  if (existing != nullptr) return existing->second;
  LinkFaultState& st = fault_states_[{from, to}];
  st.rng.reseed(fault_stream_seed(fault_seed_root_, from, to));
  st.last_packet = sim_.now();  // a fresh state has no idle gap to relax
  return st;
}

bool Network::links_down() const {
  const LinkFaultPlan* plan = fault_plan();
  if (plan == nullptr || plan->flaps.empty()) return false;
  return flap_down(plan->flaps, sim_.now() - fault_epoch_);
}

void Network::deliver(NodeId from, NodeId to, wire::Packet pkt,
                      util::Duration delay) {
  ++packets_transmitted_;
  TSPU_OBS_COUNT("netsim.transmitted");
  // Validate the destination at schedule time (nodes are never removed, so
  // the id stays valid through the flight) and let the typed queue carry the
  // packet as a POD slab entry — no closure, no heap.
  nodes_.at(to);
  sim_.schedule_packet(delay, from, to, std::move(pkt));
}

void Network::deliver_scheduled(NodeId from, NodeId to, wire::Packet pkt) {
  // A link that flapped down while the packet was in flight eats it at
  // the delivery instant — send-time checks alone would let a packet
  // "tunnel through" an outage that started after transmission.
  if (links_down()) {
    ++fault_stats_.dropped_down;
    TSPU_OBS_COUNT("netsim.drop.link_down");
    if (obs::tracing())
      trace_link_event("drop.link_down", *this, from, to, sim_.now(), pkt);
    return;
  }
  TSPU_AUDIT(!links_down(),
             "downed link must never deliver a packet");
  TSPU_OBS_COUNT("netsim.delivered");
  if (obs::tracing())
    trace_link_event("deliver", *this, from, to, sim_.now(), pkt);
  nodes_[to]->receive(std::move(pkt), from);
}

void Network::transmit(NodeId from, NodeId to, wire::Packet pkt) {
  const Link* link = find_link(from, to);
  if (link == nullptr)
    throw std::logic_error("transmit over non-existent link " +
                           node(from).name() + " -> " + node(to).name());
  const util::Duration link_delay = link->delay;
  if (!loss_.empty()) {
    const auto* loss = loss_.find({from, to});
    if (loss != nullptr && loss_rng_.bernoulli(loss->second)) {
      TSPU_OBS_COUNT("netsim.drop.loss");
      if (obs::tracing())
        trace_link_event("drop.loss", *this, from, to, sim_.now(), pkt);
      return;  // transient loss: the packet simply vanishes
    }
  }
  const LinkFaultPlan* plan = fault_plan();
  if (plan == nullptr || !plan->any()) {
    deliver(from, to, std::move(pkt), link_delay);
    return;
  }

  const util::Duration since_epoch = sim_.now() - fault_epoch_;
  if (flap_down(plan->flaps, since_epoch)) {
    ++fault_stats_.dropped_down;
    TSPU_OBS_COUNT("netsim.drop.link_down");
    if (obs::tracing())
      trace_link_event("drop.link_down", *this, from, to, sim_.now(), pkt);
    return;  // sent into a dead link
  }

  LinkFaultState& st = fault_state(from, to);
  const bool time_clocked =
      plan->burst.enabled() && plan->burst.relax_steps_per_second > 0.0;
  if (time_clocked) {
    // Time-clocked chain: the state evolves with the elapsed gap (one
    // closed-form draw), so a retry backoff genuinely decorrelates
    // attempts instead of meeting the same frozen bad state, and the
    // per-packet draws below only SAMPLE it — a back-to-back fragment
    // train sees one outage state, not 45 fresh chances to enter one.
    st.chain.relax(plan->burst, sim_.now() - st.last_packet, st.rng);
    st.last_packet = sim_.now();
  }
  // Fixed draw order per packet — duplicate decision, then per-copy chain
  // step / iid loss / corruption / delay — keeps the stream consumption
  // identical no matter which faults fire.
  const int copies =
      plan->duplicate_prob > 0.0 && st.rng.bernoulli(plan->duplicate_prob)
          ? 2
          : 1;
  for (int c = 0; c < copies; ++c) {
    // Each copy is an independent packet on the wire: it advances the loss
    // chain and draws every fault on its own, so duplicated and reordered
    // paths see exactly the same loss model as clean ones.
    const bool burst_lost =
        plan->burst.enabled() &&
        (time_clocked ? st.chain.sample(plan->burst, st.rng)
                      : st.chain.step(plan->burst, st.rng));
    if (burst_lost) {
      ++fault_stats_.dropped_burst;
      TSPU_OBS_COUNT("netsim.drop.burst");
      if (obs::tracing())
        trace_link_event("drop.burst", *this, from, to, sim_.now(), pkt);
      continue;
    }
    if (plan->iid_loss > 0.0 && st.rng.bernoulli(plan->iid_loss)) {
      ++fault_stats_.dropped_iid;
      TSPU_OBS_COUNT("netsim.drop.iid");
      if (obs::tracing())
        trace_link_event("drop.iid", *this, from, to, sim_.now(), pkt);
      continue;
    }
    wire::Packet copy;
    if (c + 1 < copies) {
      copy = pkt;  // an earlier copy still needs the original
    } else {
      copy = std::move(pkt);
    }
    if (c > 0) {
      ++fault_stats_.duplicated;
      TSPU_OBS_COUNT("netsim.dup");
    }
    if (plan->corrupt_prob > 0.0 && !copy.payload.empty() &&
        st.rng.bernoulli(plan->corrupt_prob)) {
      copy.payload[st.rng.below(copy.payload.size())] ^= 0xff;
      ++fault_stats_.corrupted;
      TSPU_OBS_COUNT("netsim.corrupt");
    }
    util::Duration delay = link_delay;
    if (plan->reorder_prob > 0.0 && st.rng.bernoulli(plan->reorder_prob)) {
      delay = delay + plan->reorder_delay;
      ++fault_stats_.reordered;
      TSPU_OBS_COUNT("netsim.reorder");
    } else if (plan->jitter_max.as_micros() > 0) {
      delay = delay + util::Duration::micros(static_cast<std::int64_t>(
                          st.rng.below(static_cast<std::uint64_t>(
                              plan->jitter_max.as_micros()))));
    }
    deliver(from, to, std::move(copy), delay);
  }
}

NodeId Network::find_by_addr(util::Ipv4Addr addr) const {
  const auto* e = by_addr_.find(addr);
  return e == nullptr ? kInvalidNode : e->second;
}

}  // namespace tspu::netsim
