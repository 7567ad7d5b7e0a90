// TSPU connection tracking: role inference, state timeouts, blocking states.
//
// This implements the externally-observed state machine of §5.3.2/§5.3.3:
//  * The device infers "client"/"server" roles from the FIRST packet of a
//    flow and from literal SYN / SYN/ACK heuristics. SNI censorship only
//    applies when the LOCAL (inside-Russia) side is the effective client.
//  * A local SYN/ACK answering a previously-seen remote SYN REVERSES the
//    roles (the Split Handshake evasion, §8).
//  * Entries are evicted after state-dependent inactivity timeouts
//    (Table 2 / Table 8); blocking states have their own residual timeouts.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>

#include "tspu/budget.h"
#include "tspu/timeouts.h"
#include "util/flat_map.h"
#include "util/ip.h"
#include "util/time.h"
#include "wire/ipv4.h"
#include "wire/tcp.h"

namespace tspu::core {

/// Flow identity from the device's fixed viewpoint: `local` is always the
/// inside (left/user-facing) endpoint.
struct FlowKey {
  util::Ipv4Addr local;
  util::Ipv4Addr remote;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  wire::IpProto proto = wire::IpProto::kTcp;

  /// Memberwise lexicographic order (local, remote, local_port, remote_port,
  /// proto) — identical to the defaulted comparison, but packed into two
  /// integer compares because the conntrack tree walk runs this a dozen
  /// times per packet.
  friend std::strong_ordering operator<=>(const FlowKey& a, const FlowKey& b) {
    const std::uint64_t ah =
        static_cast<std::uint64_t>(a.local.value()) << 32 | a.remote.value();
    const std::uint64_t bh =
        static_cast<std::uint64_t>(b.local.value()) << 32 | b.remote.value();
    if (ah != bh) return ah <=> bh;
    const std::uint64_t al =
        static_cast<std::uint64_t>(a.local_port) << 24 |
        static_cast<std::uint64_t>(a.remote_port) << 8 |
        static_cast<std::uint64_t>(a.proto);
    const std::uint64_t bl =
        static_cast<std::uint64_t>(b.local_port) << 24 |
        static_cast<std::uint64_t>(b.remote_port) << 8 |
        static_cast<std::uint64_t>(b.proto);
    return al <=> bl;
  }
  friend bool operator==(const FlowKey& a, const FlowKey& b) {
    return (a <=> b) == 0;
  }
};

enum class Initiator { kLocal, kRemote };

/// Conntrack state used ONLY to select the inactivity timeout; the blocking
/// decision uses initiator/reversed.
enum class ConnState {
  kLocalSynSent,   ///< local first packet, bare SYN
  kLocalOther,     ///< local first packet, anything else (e.g. bare SYN/ACK)
  kSynReceived,    ///< local-initiated, SYNs from both sides, no SYN/ACK yet
  kRemoteSynSent,  ///< remote first packet, bare SYN
  kRemoteOther,    ///< remote first packet, anything else
  kRoleReversed,   ///< local answered a remote SYN with SYN/ACK
  kEstablished,    ///< some side's SYN/ACK was ACKed by the other
};

/// Active blocking behavior attached to a flow.
enum class BlockMode {
  kNone,
  kSniRstAck,      ///< SNI-I
  kSniDelayedDrop, ///< SNI-II
  kSniThrottle,    ///< SNI-III
  kSniBackupDrop,  ///< SNI-IV
  kQuicDrop,
};

/// Trigger classes for per-flow failure-injection bookkeeping (Table 1).
enum class TriggerType : int {
  kSniI = 0,
  kSniII,
  kSniIII,
  kSniIV,
  kQuic,
  kIpBased,
  kCount_,
};

/// Stable lowercase state name, used in trace events and debug output.
const char* conn_state_name(ConnState s);

/// "local:port>remote:port/proto" — the flow rendering used by trace events.
std::string flow_str(const FlowKey& key);

struct ConnEntry {
  ConnState state = ConnState::kLocalOther;
  Initiator initiator = Initiator::kLocal;
  bool reversed = false;
  bool seen_local_syn = false;
  bool seen_remote_syn = false;
  bool seen_local_synack = false;
  bool seen_remote_synack = false;
  util::Instant last_update;

  // ---- blocking ----
  BlockMode block = BlockMode::kNone;
  util::Instant block_last_activity;
  int grace_remaining = 0;          ///< SNI-II grace packets (5-8)
  double throttle_tokens = 0;       ///< SNI-III bucket level (bytes)
  util::Instant throttle_refilled;
  // Failure-injection memo: one Bernoulli draw per flow per trigger type.
  std::uint8_t failure_drawn_mask = 0;
  std::uint8_t failure_result_mask = 0;

  // ---- optional TCP stream reassembly (§8 "patched" capability) ----
  util::Bytes upstream_stream;   ///< accumulated upstream payload bytes
  bool stream_overflow = false;  ///< gave up after the cap

  /// True when the SNI/IP censorship rules may act on this flow: the local
  /// side must look like the client.
  bool local_is_effective_client() const {
    return initiator == Initiator::kLocal && !reversed;
  }
};

/// The tracker. One instance per TSPU device (state is per-box, which is why
/// paths with two devices need both to fail, §5.2.1).
class ConnTracker {
 public:
  /// Reference-stability contract: track_tcp/track_udp/find hand out
  /// references and pointers into the table that callers (Device::handle_tcp
  /// and friends) hold across FURTHER tracker calls on other flows — so the
  /// table must be node-stable under insert and unrelated erase. std::map
  /// guarantees that; util::FlatMap (used in the netsim hot paths since its
  /// PR-2 introduction) does NOT: its vector storage reallocates on insert
  /// and its tail merge moves elements. The static_assert below turns a
  /// well-meaning "FlatMap is faster" swap into a compile error instead of
  /// silent dangling references.
  using Table = std::map<FlowKey, ConnEntry>;
  static_assert(!util::is_flat_map<Table>,
                "ConnTracker::Table must be node-stable: track_tcp/track_udp "
                "return references held across later inserts");


  /// `strict_roles` models the §8 patch "handling Simultaneous Open or Split
  /// Handshake simply requires reasoning about the roles of Client and
  /// Server in a more ad-hoc way": a local SYN/ACK answering a remote SYN
  /// no longer flips the roles. `budget` caps the table (max_entries) and
  /// the device-wide reassembled stream footprint (max_bytes, see
  /// charge_stream); `overload` carries the hysteresis band; `evict_seed`
  /// starts the kEvictRandom stream.
  explicit ConnTracker(ConntrackTimeouts timeouts, BlockingTimeouts blocking,
                       bool strict_roles = false, TableBudget budget = {},
                       OverloadPolicy overload = {},
                       std::uint64_t evict_seed = 0xb06d0ull)
      : timeouts_(timeouts), blocking_(blocking), strict_roles_(strict_roles),
        guard_(obs::Layer::kConntrack, budget, overload, evict_seed) {}

  /// Reseeds the eviction RNG stream and drops the overload latch. Called
  /// by Device::reseed at trial boundaries (stateless splitmix64-derived
  /// seed) so eviction choices depend only on the item's own seed.
  void reseed_eviction(std::uint64_t seed) { guard_.reseed(seed); }

  /// True while the RejectNew hysteresis latch is set (budgeted tables
  /// only); the device consults this for its fail-open/fail-closed action.
  bool overloaded() const { return guard_.overloaded(); }

  /// Observes a TCP packet and returns the (created/updated) entry after
  /// applying state transitions and expiry. `from_local` = packet travels
  /// local -> remote (upstream). Returns nullptr when admission was
  /// REJECTED (RejectNew policy at capacity) — the caller owns the
  /// overload response. Existing flows are always updated.
  ConnEntry* admit_tcp(const FlowKey& key, wire::TcpFlags flags,
                       bool from_local, util::Instant now);

  /// admit_tcp for configurations that never reject (unbounded or evicting
  /// budgets): keeps the original reference-returning contract; rejection
  /// here is a caller error (TSPU_CHECK).
  ConnEntry& track_tcp(const FlowKey& key, wire::TcpFlags flags,
                       bool from_local, util::Instant now);

  /// Observes a UDP packet (QUIC tracking). Creates an entry only when one
  /// already exists or `create` is set (we only materialize UDP state when a
  /// block begins, to mirror the device's narrow UDP interest). With
  /// `create`, nullptr additionally means the admission was rejected.
  ConnEntry* track_udp(const FlowKey& key, bool from_local, util::Instant now,
                       bool create = false);

  /// Looks up without modifying (still applies expiry). nullptr when absent.
  ConnEntry* find(const FlowKey& key, util::Instant now);

  /// Raw table size including entries whose lazy eviction hasn't run yet.
  /// Budget accounting never uses this — see live_size().
  std::size_t size() const { return table_.size(); }

  /// Exact live occupancy: runs the lazy-eviction sweep first, so the
  /// result is what the device's memory footprint actually is at `now`.
  /// This is the number the occupancy gauge and admission control see.
  std::size_t live_size(util::Instant now) { return live_entries(now); }

  /// Sweeps expired entries and returns the live count (live_size's
  /// historical name, kept for existing call sites).
  std::size_t live_entries(util::Instant now);

  /// Charges `add` reassembled stream bytes against the byte budget.
  /// Returns false — charging nothing — when the device-wide footprint
  /// would exceed TableBudget::max_bytes; the caller then abandons
  /// reassembly for the flow (stream_overflow).
  bool charge_stream(std::size_t add);

  /// Clears an entry's reassembled stream and returns its bytes to the
  /// budget. All stream-clearing must go through here so the device-wide
  /// byte accounting stays exact.
  void release_stream(ConnEntry& entry);

  /// Total reassembled stream bytes currently charged across the table.
  std::size_t stream_bytes() const { return stream_bytes_; }

  /// TSPU_AUDIT sweep (debug builds): entry clocks never run ahead of the
  /// simulator, role-reversal and established states are consistent with the
  /// SYN/SYN-ACK history, SNI-II grace counts stay in the paper's 5-8 range,
  /// and failure draws precede failure results.
  void audit(util::Instant now) const;

  util::Duration state_timeout(ConnState s) const;
  util::Duration block_timeout(BlockMode m) const;

 private:
  bool expired(const ConnEntry& e, util::Instant now) const;
  /// Erases every expired entry WITHOUT publishing occupancy (the caller
  /// decides when to note_occupancy, breaking the mutual recursion between
  /// sweeping and gauge publication). Returns whether anything was erased.
  bool sweep_expired(util::Instant now);
  /// Admission control for a new entry: sweeps expired entries, then at
  /// capacity either evicts per policy (returns true) or rejects (false).
  bool make_room(util::Instant now);
  /// Erases one entry as an eviction (counted + traced with `reason`).
  void evict(Table::iterator it, util::Instant now, const char* reason);
  /// Sweeps, then publishes occupancy through the budget guard; called
  /// after every occupancy change on a budgeted table.
  void note_occupancy(util::Instant now);

  ConntrackTimeouts timeouts_;
  BlockingTimeouts blocking_;
  bool strict_roles_ = false;
  BudgetGuard guard_;
  /// Device-wide reassembled stream bytes currently buffered (the TCP
  /// reassembly footprint the byte budget polices).
  std::size_t stream_bytes_ = 0;
  Table table_;
  /// Resume point for audit()'s bounded rotating sweep (Debug builds only;
  /// mutable because auditing observes, never mutates, tracked state).
  mutable FlowKey audit_cursor_{};
};

}  // namespace tspu::core
