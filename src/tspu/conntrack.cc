#include "tspu/conntrack.h"

#include <utility>

#include "obs/obs.h"
#include "util/check.h"

namespace tspu::core {

const char* conn_state_name(ConnState s) {
  switch (s) {
    case ConnState::kLocalSynSent: return "local_syn_sent";
    case ConnState::kLocalOther: return "local_other";
    case ConnState::kSynReceived: return "syn_received";
    case ConnState::kRemoteSynSent: return "remote_syn_sent";
    case ConnState::kRemoteOther: return "remote_other";
    case ConnState::kRoleReversed: return "role_reversed";
    case ConnState::kEstablished: return "established";
  }
  return "?";
}

std::string flow_str(const FlowKey& key) {
  return key.local.str() + ":" + std::to_string(key.local_port) + ">" +
         key.remote.str() + ":" + std::to_string(key.remote_port) +
         (key.proto == wire::IpProto::kUdp ? "/udp" : "/tcp");
}

namespace {

/// Trace one conntrack transition; the counter is unconditional so Release
/// invariants can be checked without event tracing enabled.
void note_transition(const FlowKey& key, const ConnEntry& e,
                     util::Instant now) {
  TSPU_OBS_COUNT("tspu.conntrack.transition");
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kConntrack, "conn.state", now, flow_str(key),
                     conn_state_name(e.state));
  }
}

}  // namespace

void ConnTracker::note_occupancy(util::Instant now) {
  // Everything here is gated on bounded(): an unbounded tracker must keep
  // its obs output byte-identical to the pre-budget device.
  if (!guard_.bounded()) return;
  // Reconcile lazy expiry first: the gauge and the overload latch must
  // never observe entries that are already past their timeout but unswept,
  // or a burst of long-dead flows could latch `overload.enter` (and reject
  // admissions) on a table that is actually near-empty.
  sweep_expired(now);
  guard_.publish(table_.size(), now);
}

void ConnTracker::evict(Table::iterator it, util::Instant now,
                        const char* reason) {
  stream_bytes_ -= it->second.upstream_stream.size();
  TSPU_OBS_COUNT("tspu.conntrack.evicted");
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kConntrack, "conn.evict", now,
                     flow_str(it->first), reason);
  }
  table_.erase(it);
  // Evictions shrink the table: re-publish occupancy and let the overload
  // hysteresis exit. Without this, a table drained purely by eviction
  // stayed latched forever (the latch was only re-evaluated on admit).
  note_occupancy(now);
}

bool ConnTracker::make_room(util::Instant now) {
  const TableBudget& budget = guard_.budget();
  if (budget.max_entries == 0) return true;
  // Reclaim lazily-expired entries and re-evaluate the hysteresis latch
  // BEFORE any admission decision — not just at capacity. A latch set by
  // entries that have since expired must exit here rather than reject new
  // flows against dead state (shrink-only workloads previously never
  // re-evaluated it and stayed overloaded forever).
  live_entries(now);
  if (budget.policy == EvictionPolicy::kRejectNew) {
    // Reject while the hysteresis latch is set (it enters at the
    // high-water fraction and exits at the low-water one), and always
    // reject when genuinely full — occupancy may never exceed the budget.
    if (guard_.overloaded() || table_.size() >= budget.max_entries) {
      guard_.reject(now, table_.size());
      return false;
    }
    return true;
  }
  const char* reason =
      budget.policy == EvictionPolicy::kEvictRandom ? "random" : "oldest";
  while (table_.size() >= budget.max_entries) {
    evict(guard_.victim(table_, &ConnEntry::last_update), now, reason);
  }
  return true;
}

bool ConnTracker::charge_stream(std::size_t add) {
  const std::size_t max_bytes = guard_.budget().max_bytes;
  if (max_bytes != 0 && stream_bytes_ + add > max_bytes) {
    TSPU_OBS_COUNT("tspu.conntrack.stream_rejected");
    return false;
  }
  stream_bytes_ += add;
  return true;
}

void ConnTracker::release_stream(ConnEntry& entry) {
  TSPU_DCHECK(stream_bytes_ >= entry.upstream_stream.size(),
              "stream bytes released that were never charged");
  stream_bytes_ -= entry.upstream_stream.size();
  entry.upstream_stream.clear();
}

void ConnTracker::audit(util::Instant now) const {
  // Bounded rotating sweep: this runs after EVERY simulator event in Debug
  // builds, so a full-table pass would make big scenarios quadratic
  // (events x flows). Each call audits up to kAuditSlice entries and
  // resumes where the previous call stopped; every entry is still audited
  // once every ceil(size / kAuditSlice) events.
  constexpr std::size_t kAuditSlice = 16;
  guard_.audit(table_.size(), stream_bytes_);
  auto it = table_.lower_bound(audit_cursor_);
  for (std::size_t n = 0; n < kAuditSlice && !table_.empty(); ++n) {
    if (it == table_.end()) it = table_.begin();
    const auto& [key, e] = *it;
    ++it;
    TSPU_AUDIT(e.last_update <= now, "conntrack entry updated in the future");
    if (e.block != BlockMode::kNone) {
      TSPU_AUDIT(e.block_last_activity <= now,
                 "blocking state refreshed in the future");
    }
    if (e.block == BlockMode::kSniDelayedDrop) {
      // sni_ii_grace_packets() yields 5-8; apply_block only decrements.
      TSPU_AUDIT(e.grace_remaining >= 0 && e.grace_remaining <= 8,
                 "SNI-II grace count outside the paper's 5-8 range");
    }
    // A failure result is only recorded for draws that actually happened.
    TSPU_AUDIT((e.failure_result_mask & ~e.failure_drawn_mask) == 0,
               "failure result without a matching Bernoulli draw");
    if (e.reversed) {
      TSPU_AUDIT(e.seen_remote_syn && e.seen_local_synack,
                 "role reversal without the split-handshake exchange");
    }
    if (key.proto == wire::IpProto::kUdp) {
      TSPU_AUDIT(e.state == ConnState::kEstablished,
                 "UDP entries have no TCP handshake states");
    } else if (e.state == ConnState::kEstablished) {
      TSPU_AUDIT(e.seen_local_synack || e.seen_remote_synack,
                 "established TCP flow without any SYN/ACK observed");
    }
  }
  audit_cursor_ = it == table_.end() ? FlowKey{} : it->first;
}

util::Duration ConnTracker::state_timeout(ConnState s) const {
  switch (s) {
    case ConnState::kLocalSynSent: return timeouts_.local_syn_sent;
    case ConnState::kLocalOther: return timeouts_.local_other;
    case ConnState::kSynReceived: return timeouts_.syn_received;
    case ConnState::kRemoteSynSent: return timeouts_.remote_syn_sent;
    case ConnState::kRemoteOther: return timeouts_.remote_other;
    case ConnState::kRoleReversed: return timeouts_.role_reversed;
    case ConnState::kEstablished: return timeouts_.established;
  }
  return timeouts_.established;
}

util::Duration ConnTracker::block_timeout(BlockMode m) const {
  switch (m) {
    case BlockMode::kSniRstAck: return blocking_.sni_i;
    case BlockMode::kSniDelayedDrop: return blocking_.sni_ii;
    case BlockMode::kSniThrottle: return blocking_.sni_ii;  // policed like II
    case BlockMode::kSniBackupDrop: return blocking_.sni_iv;
    case BlockMode::kQuicDrop: return blocking_.quic;
    case BlockMode::kNone: break;
  }
  return util::Duration::seconds(0);
}

bool ConnTracker::expired(const ConnEntry& e, util::Instant now) const {
  if (e.block != BlockMode::kNone) {
    // Residual censorship outlives the ordinary conntrack timeout; the
    // blocking state has its own clock, refreshed by matching traffic.
    return now - e.block_last_activity > block_timeout(e.block);
  }
  return now - e.last_update > state_timeout(e.state);
}

bool ConnTracker::sweep_expired(util::Instant now) {
  bool erased = false;
  for (auto it = table_.begin(); it != table_.end();) {
    if (expired(it->second, now)) {
      TSPU_OBS_COUNT("tspu.conntrack.expired");
      if (obs::tracing()) {
        obs::trace_event(obs::Layer::kConntrack, "conn.expire", now,
                         flow_str(it->first), "sweep");
      }
      stream_bytes_ -= it->second.upstream_stream.size();
      it = table_.erase(it);
      erased = true;
    } else {
      ++it;
    }
  }
  return erased;
}

std::size_t ConnTracker::live_entries(util::Instant now) {
  if (sweep_expired(now)) note_occupancy(now);
  return table_.size();
}

ConnEntry* ConnTracker::find(const FlowKey& key, util::Instant now) {
  auto it = table_.find(key);
  if (it == table_.end()) return nullptr;
  if (expired(it->second, now)) {
    TSPU_OBS_COUNT("tspu.conntrack.expired");
    if (obs::tracing()) {
      obs::trace_event(obs::Layer::kConntrack, "conn.expire", now,
                       flow_str(key), "lazy");
    }
    stream_bytes_ -= it->second.upstream_stream.size();
    table_.erase(it);
    note_occupancy(now);
    return nullptr;
  }
  return &it->second;
}

ConnEntry& ConnTracker::track_tcp(const FlowKey& key, wire::TcpFlags flags,
                                  bool from_local, util::Instant now) {
  ConnEntry* entry = admit_tcp(key, flags, from_local, now);
  TSPU_CHECK(entry != nullptr,
             "track_tcp on a rejecting tracker: use admit_tcp and handle "
             "nullptr when the budget policy is RejectNew");
  return *entry;
}

ConnEntry* ConnTracker::admit_tcp(const FlowKey& key, wire::TcpFlags flags,
                                  bool from_local, util::Instant now) {
  // Single-traversal admission on the per-packet hot path: one lower_bound
  // locates the flow, handles its lazy expiry, and doubles as the insertion
  // hint for a fresh entry — the old find() + operator[] walked the tree
  // twice (three times counting the expiry erase) per new flow.
  auto it = table_.lower_bound(key);
  bool present = it != table_.end() && !table_.key_comp()(key, it->first);
  ConnEntry* reuse = nullptr;
  if (present && expired(it->second, now)) {
    TSPU_OBS_COUNT("tspu.conntrack.expired");
    if (obs::tracing()) {
      obs::trace_event(obs::Layer::kConntrack, "conn.expire", now,
                       flow_str(key), "lazy");
    }
    stream_bytes_ -= it->second.upstream_stream.size();
    if (!guard_.bounded()) {
      // Unbounded table: the fresh entry below is guaranteed admission at
      // this exact key and note_occupancy is a no-op, so the node is reused
      // in place — no erase/insert rebalance and no allocator round-trip.
      // Counters, traces, and the resulting table are identical to the
      // erase + re-insert the bounded path still performs.
      reuse = &it->second;
    } else {
      // Bounded table: note_occupancy may sweep other expired entries and
      // flip the overload latch, which the admission decision below must
      // observe — and the sweep can invalidate `it`, so the insert falls
      // back to the hint-free path.
      it = table_.erase(it);
      note_occupancy(now);
    }
    present = false;
  }
  if (!present) {
    // First packet of the flow determines the initiator — the heuristic the
    // paper exploits (§5.3.2): censorship depends on which machine sends the
    // first packet the device sees.
    ConnEntry fresh;
    fresh.initiator = from_local ? Initiator::kLocal : Initiator::kRemote;
    if (from_local) {
      fresh.state = flags.is_syn_only() ? ConnState::kLocalSynSent
                                        : ConnState::kLocalOther;
    } else {
      fresh.state = flags.is_syn_only() ? ConnState::kRemoteSynSent
                                        : ConnState::kRemoteOther;
    }
    fresh.seen_local_syn = from_local && flags.syn() && !flags.ack();
    fresh.seen_remote_syn = !from_local && flags.syn() && !flags.ack();
    fresh.seen_local_synack = from_local && flags.is_syn_ack();
    fresh.seen_remote_synack = !from_local && flags.is_syn_ack();
    fresh.last_update = now;
    ConnEntry* created = nullptr;
    if (reuse != nullptr) {
      *reuse = std::move(fresh);
      created = reuse;
    } else if (!guard_.bounded()) {
      // Unbounded table: make_room is a no-op and cannot invalidate the
      // hint, so the insert reuses the lower_bound position directly.
      created = &table_.emplace_hint(it, key, std::move(fresh))->second;
    } else {
      // Bounded table: make_room (and the note_occupancy sweep above) may
      // erase arbitrary entries, invalidating the hint — two-step insert.
      if (!make_room(now)) return nullptr;
      created = &(table_[key] = std::move(fresh));
    }
    TSPU_OBS_COUNT("tspu.conntrack.created");
    if (obs::tracing()) {
      obs::trace_event(obs::Layer::kConntrack, "conn.create", now,
                       flow_str(key), conn_state_name(created->state));
    }
    note_occupancy(now);
    return created;
  }

  ConnEntry& e = it->second;
  e.last_update = now;

  if (flags.is_syn_only()) {
    (from_local ? e.seen_local_syn : e.seen_remote_syn) = true;
  } else if (flags.is_syn_ack()) {
    (from_local ? e.seen_local_synack : e.seen_remote_synack) = true;
    if (from_local && e.seen_remote_syn && !strict_roles_) {
      // Local answered a remote SYN with SYN/ACK: by the literal-SYN
      // heuristic, the local machine is now the "server" — roles reverse
      // and SNI-I style blocking stops applying (§8 Split Handshake).
      // A strict-roles device keeps the first-packet initiator instead.
      e.reversed = true;
      e.state = ConnState::kRoleReversed;
      TSPU_OBS_COUNT("tspu.conntrack.reversed");
      note_transition(key, e, now);
      return &e;
    }
  }

  // Handshake completion: an ACK from the side that did NOT send the
  // SYN/ACK, after a SYN/ACK was seen.
  const bool completes_handshake =
      flags.ack() && !flags.syn() &&
      ((from_local && e.seen_remote_synack) ||
       (!from_local && e.seen_local_synack));
  if (completes_handshake) {
    if (e.state != ConnState::kEstablished) {
      e.state = ConnState::kEstablished;
      note_transition(key, e, now);
    }
    return &e;
  }

  // Local-initiated simultaneous open: both sides have sent bare SYNs but
  // nobody a SYN/ACK yet (Table 2's SYN-RECEIVED sequence).
  if (!e.reversed && e.initiator == Initiator::kLocal && e.seen_local_syn &&
      e.seen_remote_syn && !e.seen_local_synack && !e.seen_remote_synack) {
    if (e.state != ConnState::kSynReceived) {
      e.state = ConnState::kSynReceived;
      note_transition(key, e, now);
    }
  }
  return &e;
}

ConnEntry* ConnTracker::track_udp(const FlowKey& key, bool from_local,
                                  util::Instant now, bool create) {
  ConnEntry* existing = find(key, now);
  if (existing != nullptr) {
    existing->last_update = now;
    return existing;
  }
  if (!create) return nullptr;
  if (!make_room(now)) return nullptr;
  ConnEntry fresh;
  fresh.initiator = from_local ? Initiator::kLocal : Initiator::kRemote;
  fresh.state = ConnState::kEstablished;  // UDP has no handshake states
  fresh.last_update = now;
  ConnEntry& created = table_[key] = fresh;
  TSPU_OBS_COUNT("tspu.conntrack.created");
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kConntrack, "conn.create", now,
                     flow_str(key), conn_state_name(created.state));
  }
  note_occupancy(now);
  return &created;
}

}  // namespace tspu::core
