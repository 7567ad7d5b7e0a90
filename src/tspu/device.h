// The TSPU device: an in-path, stateful DPI middlebox implementing every
// blocking behavior the paper observed (Figure 2):
//
//   SNI-I   RST/ACK rewriting of downstream packets after a triggering
//           ClientHello (§5.2)
//   SNI-II  5-8 grace packets, then symmetric drops (§5.2)
//   SNI-III traffic policing at ~650 bytes/sec (Feb 26 - Mar 4 era, §5.2)
//   SNI-IV  backup bidirectional drop when SNI-I cannot act (§5.3.2)
//   QUIC    flow drop on the Figure-14 fingerprint (§5.2)
//   IP      drop local-initiated traffic to blocked IPs; RST/ACK-rewrite
//           responses to connections initiated BY a blocked IP (§5.2)
//
// plus the fragment engine of §5.3.1 and the conntrack of §5.3.2/§5.3.3.
//
// Placement convention: Network::insert_inline(inside, outside, device) puts
// the Russian-user side on the LEFT, so Direction::kLeftToRight is upstream.
// A device only ever acts on what it sees: installing it on a link that the
// reverse path bypasses yields an "upstream-only" device (§7.1.1) with no
// extra configuration.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "netsim/faults.h"
#include "netsim/middlebox.h"
#include "tspu/conntrack.h"
#include "tspu/frag_engine.h"
#include "tspu/policy.h"
#include "tspu/timeouts.h"
#include "util/rng.h"

namespace tspu::core {

/// Per-trigger-type probability that this device FAILS to act on a trigger
/// (drawn once per flow per type). Calibrated per-ISP to reproduce Table 1.
struct FailureRates {
  double sni_i = 0.0;
  double sni_ii = 0.0;
  double sni_iii = 0.0;
  double sni_iv = 0.0;
  double quic = 0.0;
  double ip_based = 0.0;

  double of(TriggerType t) const;
};

/// The §8 "patch" capabilities: evasion counter-measures the paper argues
/// the TSPU could deploy "assuming it is provisioned with enough computation
/// and memory resources". All default OFF — the deployed 2022 device. The
/// ablation bench (ablation_patched_device) shows which strategies each
/// capability eliminates.
struct DeviceCapabilities {
  /// Reassemble the upstream TCP byte stream per flow before SNI matching
  /// ("TCP flow reassembly is a standard feature for today's DPIs"):
  /// defeats TCP segmentation, small-window, and padded-CH evasion.
  bool tcp_reassembly = false;
  /// Reassemble IP fragments for inspection (forwarding is unchanged):
  /// defeats IP-fragmentation of the ClientHello.
  bool ip_defragment_inspect = false;
  /// Ad-hoc client/server role reasoning: split handshake / simultaneous
  /// open no longer reverse the roles.
  bool strict_role_inference = false;
  /// "filter servers' advertised flow control windows": drop downstream
  /// SYN/SYN-ACKs whose window is below min_server_window.
  bool filter_small_windows = false;
  std::uint16_t min_server_window = 256;
  /// Parse every TLS record in a packet, not just the first: defeats the
  /// prepended-record evasion.
  bool multi_record_parse = false;

  static DeviceCapabilities all() {
    return {true, true, true, true, 256, true};
  }
};

struct DeviceConfig {
  FailureRates failures;
  ConntrackTimeouts conn_timeouts;
  BlockingTimeouts block_timeouts;
  FragmentTimeouts frag;
  DeviceCapabilities capabilities;
  /// SNI-III policing rate: "around 600-700 bytes per second" (§5.2).
  double throttle_bytes_per_sec = 650.0;
  /// Bucket depth: just above one MTU-sized packet, so a full-size segment
  /// can pass once the bucket refills (a policer whose bucket is smaller
  /// than the MTU would starve bulk flows entirely).
  double throttle_burst_bytes = 2000.0;
  /// Cap on per-flow reassembled stream bytes (tcp_reassembly only).
  std::size_t stream_cap_bytes = 8192;
  /// Capacity budget for the conntrack table. max_entries caps tracked
  /// flows; max_bytes caps the DEVICE-WIDE reassembled TCP stream
  /// footprint. Default unbounded — byte-identical to the pre-budget box.
  TableBudget conn_budget;
  /// Capacity budget for the fragment engine: max_entries caps in-flight
  /// queues, max_bytes total buffered fragment payload.
  TableBudget frag_budget;
  /// What the device does with traffic a saturated table REJECTED
  /// (RejectNew policy): fail-open forwards it uninspected (false-allows,
  /// mirroring the flap semantics below), fail-closed eats it
  /// (false-blocks). Also carries the overload hysteresis band.
  OverloadPolicy overload;
  std::uint64_t seed = 0x75b4;
  /// Injected device faults: fail-open/fail-closed outage windows and
  /// mid-flow reboots that wipe conntrack/fragment state (the §3 "TSPU
  /// failure" case). Windows are relative to the last reseed().
  netsim::DeviceFaultPlan faults;
};

struct DeviceStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t rst_rewrites = 0;
  std::array<std::uint64_t, static_cast<int>(TriggerType::kCount_)> triggers{};
  std::array<std::uint64_t, static_cast<int>(TriggerType::kCount_)>
      failures_injected{};
  std::uint64_t fault_forwarded = 0;  ///< passed uninspected while fail-open
  std::uint64_t fault_dropped = 0;    ///< eaten while fail-closed
  std::uint64_t fault_reboots = 0;    ///< state wipes applied
  /// Rejected-admission outcomes (budgeted tables only — always zero on an
  /// unbounded device).
  std::uint64_t overload_forwarded = 0;  ///< passed uninspected (fail-open)
  std::uint64_t overload_dropped = 0;    ///< eaten (fail-closed)
};

class Device : public netsim::Middlebox {
 public:
  Device(std::string name, PolicyPtr policy, DeviceConfig config = {});

  void process(wire::Packet pkt, netsim::Direction dir) override;

  /// Debug-build invariant sweep over frag-engine and conntrack state; the
  /// Network invokes this after every simulator event (util/check.h).
  void audit_state(util::Instant now) const override;

  /// Rewinds the failure-injection RNG to a fresh stream and re-anchors the
  /// fault-plan epoch at the current sim instant. The parallel runner calls
  /// this between work items so a probe's failure draws — and its fault
  /// windows — depend only on the item's own seed, never on earlier items.
  void reseed(std::uint64_t seed);

  /// Installs (or replaces) this device's fault plan; windows stay relative
  /// to the last reseed() epoch.
  void set_fault_plan(netsim::DeviceFaultPlan plan) {
    config_.faults = std::move(plan);
  }
  const netsim::DeviceFaultPlan& fault_plan() const { return config_.faults; }

  const DeviceStats& stats() const { return stats_; }
  const FragEngineStats& frag_stats() const { return frag_engine_.stats(); }
  const Policy& policy() const { return *policy_; }
  ConnTracker& conntrack() { return conntrack_; }

 private:
  void handle_tcp(wire::Packet pkt, bool upstream);
  void handle_udp(wire::Packet pkt, bool upstream);
  void handle_fragment(wire::Packet pkt, bool upstream);

  /// Finds the triggering SNI in a payload (honoring multi_record_parse).
  /// Returns a view INTO `payload`: callers use it before the packet (or
  /// reassembled stream) that backs the payload is moved or mutated.
  std::optional<std::string_view> sniff_sni(
      std::span<const std::uint8_t> payload) const;
  /// ip_defragment_inspect: runs SNI inspection over a datagram rebuilt
  /// from fragments (forwarding happened separately).
  void inspect_reassembled(const wire::Packet& whole, bool upstream);

  void evaluate_sni_trigger(ConnEntry& entry, const FlowKey& key,
                            const SniPolicy& rule, wire::Packet pkt,
                            bool upstream);
  void apply_block(ConnEntry& entry, wire::Packet pkt,
                   const wire::TcpHeader& hdr, bool upstream);

  /// One Bernoulli draw per flow per trigger type; true = device fails.
  bool draw_failure(ConnEntry& entry, TriggerType type);

  /// Applies the fault plan to one packet: triggers due reboots, and while
  /// a flap window is open either forwards uninspected (fail-open) or eats
  /// the packet (fail-closed). True when the packet was consumed here.
  bool fault_intercept(wire::Packet& pkt, bool upstream);
  /// Disposes of a packet whose state-table admission was REJECTED:
  /// fail-open forwards it uninspected, fail-closed drops it.
  void overload_action(wire::Packet pkt, bool upstream);
  /// The mid-flow reboot: wipes conntrack, fragment queues, and the
  /// inspection reassembler — everything a §4 flag-sequence probe can see.
  void wipe_state();

  void forward(wire::Packet pkt, bool upstream);
  void drop(const wire::Packet& pkt);

  PolicyPtr policy_;
  DeviceConfig config_;
  ConnTracker conntrack_;
  FragmentEngine frag_engine_;
  /// Parallel inspection-only reassembly (ip_defragment_inspect); queues
  /// are keyed by (src, dst, IPID) so both directions share one instance.
  wire::Reassembler inspect_reasm_;
  util::Rng rng_;
  DeviceStats stats_;
  /// Fault-plan runtime: windows/reboots are offsets from this epoch.
  util::Instant fault_epoch_;
  std::size_t reboots_applied_ = 0;
  bool in_flap_ = false;
  /// Last reseed() seed: eviction-RNG streams for mid-trial reboots are
  /// derived from it statelessly (never by consuming rng_, which would
  /// shift the failure-draw Bernoulli sequence).
  std::uint64_t reseed_seed_;
};

/// Deterministic SNI-II grace-packet count in [5, 8] derived from the flow
/// key (the paper reports "five to eight", varying per connection).
int sni_ii_grace_packets(const FlowKey& key);

}  // namespace tspu::core
