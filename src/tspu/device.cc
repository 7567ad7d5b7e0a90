#include "tspu/device.h"

#include <algorithm>

#include "netsim/network.h"
#include "obs/obs.h"
#include "quic/quic.h"
#include "tls/clienthello.h"
#include "wire/icmp.h"
#include "wire/tcp.h"
#include "wire/udp.h"

namespace tspu::core {
namespace {

constexpr std::uint16_t kTlsPort = 443;

/// One flight-recorder counter per trigger class, mirroring stats_.triggers.
void count_trigger(TriggerType t) {
  // Cached obs handles, not results state: a CounterRef re-resolves itself
  // whenever the recorder generation changes, and counter deltas are merged
  // per shard by the obs layer — no reset wiring needed.
  // tspulint: allow(shard-escape) self-invalidating obs handle cache
  static thread_local obs::CounterRef refs[] = {
      obs::CounterRef("tspu.trigger.sni_i"),
      obs::CounterRef("tspu.trigger.sni_ii"),
      obs::CounterRef("tspu.trigger.sni_iii"),
      obs::CounterRef("tspu.trigger.sni_iv"),
      obs::CounterRef("tspu.trigger.quic"),
      obs::CounterRef("tspu.trigger.ip_based"),
  };
  refs[static_cast<int>(t)].add();
}

const char* trigger_name(TriggerType t) {
  switch (t) {
    case TriggerType::kSniI: return "sni_i";
    case TriggerType::kSniII: return "sni_ii";
    case TriggerType::kSniIII: return "sni_iii";
    case TriggerType::kSniIV: return "sni_iv";
    case TriggerType::kQuic: return "quic";
    case TriggerType::kIpBased: return "ip_based";
    case TriggerType::kCount_: break;
  }
  return "?";
}

/// Trace a device trigger/verdict decision on a flow.
void trace_verdict(const char* kind, const FlowKey& key, util::Instant now,
                   std::string detail) {
  if (!obs::tracing()) return;
  obs::trace_event(obs::Layer::kDevice, kind, now, flow_str(key),
                   std::move(detail));
}

FlowKey tcp_flow_key(const wire::Packet& pkt, const wire::TcpHeader& tcp,
                     bool upstream) {
  // `local` is always the inside endpoint: the source of upstream packets,
  // the destination of downstream ones.
  FlowKey key;
  key.proto = wire::IpProto::kTcp;
  if (upstream) {
    key.local = pkt.ip.src;
    key.remote = pkt.ip.dst;
    key.local_port = tcp.src_port;
    key.remote_port = tcp.dst_port;
  } else {
    key.local = pkt.ip.dst;
    key.remote = pkt.ip.src;
    key.local_port = tcp.dst_port;
    key.remote_port = tcp.src_port;
  }
  return key;
}

FlowKey udp_flow_key(const wire::Packet& pkt, const wire::UdpHeader& udp,
                     bool upstream) {
  FlowKey key;
  key.proto = wire::IpProto::kUdp;
  if (upstream) {
    key.local = pkt.ip.src;
    key.remote = pkt.ip.dst;
    key.local_port = udp.src_port;
    key.remote_port = udp.dst_port;
  } else {
    key.local = pkt.ip.dst;
    key.remote = pkt.ip.src;
    key.local_port = udp.dst_port;
    key.remote_port = udp.src_port;
  }
  return key;
}

/// Strips the payload and turns the segment into RST/ACK, leaving TTL, ports,
/// sequence and acknowledgement numbers untouched (§5.2 SNI-I / IP-based).
/// Takes the decoded header by value-semantics reference: the rewrite is the
/// one place the device MUTATES bytes, and it re-serializes from the header
/// fields rather than patching the original buffer.
wire::Packet rst_ack_rewrite(const wire::Packet& pkt,
                             const wire::TcpHeader& hdr) {
  wire::TcpHeader tcp = hdr;
  tcp.flags = wire::kRstAck;
  wire::Ipv4Header ip = pkt.ip;  // TTL and IPID preserved
  return wire::make_tcp_packet(ip, tcp, {});
}

}  // namespace

double FailureRates::of(TriggerType t) const {
  switch (t) {
    case TriggerType::kSniI: return sni_i;
    case TriggerType::kSniII: return sni_ii;
    case TriggerType::kSniIII: return sni_iii;
    case TriggerType::kSniIV: return sni_iv;
    case TriggerType::kQuic: return quic;
    case TriggerType::kIpBased: return ip_based;
    case TriggerType::kCount_: break;
  }
  return 0.0;
}

int sni_ii_grace_packets(const FlowKey& key) {
  // splitmix64 finalizer over the flow tuple: every tuple bit reaches the
  // low bits, so the 5-8 range is well spread across flows.
  std::uint64_t h = key.local.value();
  h = h * 1000003 + key.remote.value();
  h = h * 1000003 + (static_cast<std::uint64_t>(key.local_port) << 16 |
                     key.remote_port);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return 5 + static_cast<int>(h % 4);
}

namespace {

/// Tags for the stateless per-table eviction-RNG streams: each table's
/// stream is fault_stream_seed(reseed seed, tag, reboot generation), so
/// draws never touch the device's failure RNG.
constexpr std::uint32_t kConnEvictStream = 0xc077u;
constexpr std::uint32_t kFragEvictStream = 0xf2a6u;

/// The device's tables as provisioned by `c`, with the eviction streams of
/// reboot `generation` (0 for a fresh device) of the reseed `seed`.
ConnTracker provisioned_conntrack(const DeviceConfig& c, std::uint64_t seed,
                                  std::uint32_t generation) {
  return ConnTracker(
      c.conn_timeouts, c.block_timeouts, c.capabilities.strict_role_inference,
      c.conn_budget, c.overload,
      netsim::fault_stream_seed(seed, kConnEvictStream, generation));
}

FragmentEngine provisioned_frag_engine(const DeviceConfig& c,
                                       std::uint64_t seed,
                                       std::uint32_t generation) {
  return FragmentEngine(
      c.frag, c.frag_budget, c.overload,
      netsim::fault_stream_seed(seed, kFragEvictStream, generation));
}

}  // namespace

Device::Device(std::string name, PolicyPtr policy, DeviceConfig config)
    : Middlebox(std::move(name)),
      policy_(std::move(policy)),
      config_(config),
      conntrack_(provisioned_conntrack(config, config.seed, 0)),
      frag_engine_(provisioned_frag_engine(config, config.seed, 0)),
      inspect_reasm_(wire::ReassemblyConfig{}),
      rng_(config.seed),
      reseed_seed_(config.seed) {}

void Device::audit_state(util::Instant now) const {
  frag_engine_.audit(now);
  conntrack_.audit(now);
}

void Device::reseed(std::uint64_t seed) {
  rng_.reseed(seed);
  reseed_seed_ = seed;
  // Eviction streams are derived statelessly from the item seed — consuming
  // rng_ here would shift the failure-draw sequence and change unbounded
  // baselines that never evict at all.
  conntrack_.reseed_eviction(
      netsim::fault_stream_seed(seed, kConnEvictStream, 0));
  frag_engine_.reseed_eviction(
      netsim::fault_stream_seed(seed, kFragEvictStream, 0));
  // Fault windows/reboots are trial-relative: each begin_trial() advances
  // the virtual clock far past the previous item, so anchoring here makes
  // "flap 30 ms into the trial" mean the same thing for every item.
  fault_epoch_ = net().now();
  reboots_applied_ = 0;
  in_flap_ = false;
  // Sweep out whatever expired flow/fragment state the previous item left
  // behind NOW, at the trial boundary (the topo layer mutes recording
  // here), instead of lazily during the next item's traffic — lazy erasure
  // of a PREVIOUS item's leftovers would make per-item expiry counters
  // depend on which items shared the replica, breaking jobs-invariance.
  frag_engine_.expire(net().now());
  conntrack_.live_entries(net().now());
}

void Device::wipe_state() {
  // A reboot loses flow state, not provisioning: budgets survive, and the
  // eviction streams restart on a per-reboot generation of the item seed.
  const auto generation = static_cast<std::uint32_t>(reboots_applied_ + 1);
  conntrack_ = provisioned_conntrack(config_, reseed_seed_, generation);
  frag_engine_ = provisioned_frag_engine(config_, reseed_seed_, generation);
  inspect_reasm_ = wire::Reassembler(wire::ReassemblyConfig{});
  ++stats_.fault_reboots;
  TSPU_OBS_COUNT("tspu.fault.reboot");
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kDevice, "fault.reboot", net().now(), {},
                     name());
  }
}

bool Device::fault_intercept(wire::Packet& pkt, bool upstream) {
  const util::Duration since = net().now() - fault_epoch_;
  while (reboots_applied_ < config_.faults.reboots.size() &&
         config_.faults.reboots[reboots_applied_] <= since) {
    wipe_state();
    ++reboots_applied_;
  }
  const bool down = netsim::flap_down(config_.faults.flaps, since);
  if (!down && in_flap_) {
    in_flap_ = false;
    // Coming back from an outage: unless configured as a pure bypass, the
    // box rebooted and lost its flow state.
    if (config_.faults.reboot_on_recovery) wipe_state();
  }
  if (!down) return false;
  in_flap_ = true;
  if (config_.faults.flap_mode == netsim::DeviceFailMode::kFailClosed) {
    ++stats_.fault_dropped;
    TSPU_OBS_COUNT("tspu.fault.dropped");
    drop(pkt);
  } else {
    ++stats_.fault_forwarded;
    TSPU_OBS_COUNT("tspu.fault.forwarded");
    forward(std::move(pkt), upstream);
  }
  return true;
}

void Device::overload_action(wire::Packet pkt, bool upstream) {
  // Mirrors fault_intercept's flap semantics, but for a single rejected
  // admission instead of an outage window: fail-open forges false-allows,
  // fail-closed forges false-blocks. Reached only on budgeted devices.
  if (config_.overload.mode == netsim::DeviceFailMode::kFailClosed) {
    ++stats_.overload_dropped;
    TSPU_OBS_COUNT("tspu.overload.dropped");
    drop(pkt);
  } else {
    ++stats_.overload_forwarded;
    TSPU_OBS_COUNT("tspu.overload.forwarded");
    forward(std::move(pkt), upstream);
  }
}

std::optional<std::string_view> Device::sniff_sni(
    std::span<const std::uint8_t> payload) const {
  return config_.capabilities.multi_record_parse
             ? tls::find_sni_view_multi_record(payload)
             : tls::find_sni_view(payload);
}

void Device::inspect_reassembled(const wire::Packet& whole, bool upstream) {
  if (!upstream || whole.ip.proto != wire::IpProto::kTcp) return;
  // `whole` outlives this function, so the view (and the SNI pointing into
  // it) is valid for the entire inspection.
  auto seg = wire::parse_tcp_view(whole, /*verify_checksum=*/false);
  if (!seg || seg->hdr.dst_port != kTlsPort || seg->payload.empty()) return;
  auto sni = sniff_sni(seg->payload);
  if (!sni) return;
  auto rule = policy_->match_sni(*sni);
  if (!rule) return;

  const FlowKey key = tcp_flow_key(whole, seg->hdr, upstream);
  ConnEntry* admitted =
      conntrack_.admit_tcp(key, seg->hdr.flags, upstream, net().now());
  // Rejected admission: the fragments were already forwarded, so a
  // saturated tracker simply fails to arm the block — a false-allow with
  // no packet left to apply the overload policy to.
  if (admitted == nullptr) return;
  ConnEntry& entry = *admitted;
  if (entry.block != BlockMode::kNone || !entry.local_is_effective_client())
    return;
  // Arm the same behaviors the in-line path would; the fragments themselves
  // were already forwarded (as with SNI-I, the trigger packet gets through;
  // everything AFTER it is censored).
  if (rule->rst_ack && !draw_failure(entry, TriggerType::kSniI)) {
    ++stats_.triggers[static_cast<int>(TriggerType::kSniI)];
    count_trigger(TriggerType::kSniI);
    trace_verdict("trigger.reassembled", key, net().now(), "sni_i");
    entry.block = BlockMode::kSniRstAck;
    entry.block_last_activity = net().now();
  } else if (rule->delayed_drop &&
             !draw_failure(entry, TriggerType::kSniII)) {
    ++stats_.triggers[static_cast<int>(TriggerType::kSniII)];
    count_trigger(TriggerType::kSniII);
    trace_verdict("trigger.reassembled", key, net().now(), "sni_ii");
    entry.block = BlockMode::kSniDelayedDrop;
    entry.block_last_activity = net().now();
    entry.grace_remaining = sni_ii_grace_packets(key);
  }
}

void Device::forward(wire::Packet pkt, bool upstream) {
  forward_on(std::move(pkt), upstream ? netsim::Direction::kLeftToRight
                                      : netsim::Direction::kRightToLeft);
}

void Device::drop(const wire::Packet& pkt) {
  ++stats_.packets_dropped;
  TSPU_OBS_COUNT("tspu.device.dropped");
  if (obs::tracing()) {
    obs::trace_event(obs::Layer::kDevice, "drop", net().now(), {}, name(),
                     obs::hex_encode(wire::serialize(pkt)));
  }
}

bool Device::draw_failure(ConnEntry& entry, TriggerType type) {
  const int bit = 1 << static_cast<int>(type);
  if (!(entry.failure_drawn_mask & bit)) {
    entry.failure_drawn_mask |= bit;
    if (rng_.bernoulli(config_.failures.of(type))) {
      entry.failure_result_mask |= bit;
      ++stats_.failures_injected[static_cast<int>(type)];
      TSPU_OBS_COUNT("tspu.failure_injected");
      if (obs::tracing()) {
        obs::trace_event(obs::Layer::kDevice, "failure_injected", net().now(),
                         {}, trigger_name(type));
      }
    }
  }
  return entry.failure_result_mask & bit;
}

void Device::process(wire::Packet pkt, netsim::Direction dir) {
  ++stats_.packets_processed;
  TSPU_OBS_COUNT("tspu.device.packets");
  const bool upstream = dir == netsim::Direction::kLeftToRight;

  if (config_.faults.any() && fault_intercept(pkt, upstream)) return;

  // ICMP involving a blocked IP is dropped in both directions (§5.2:
  // "ICMP Pings to/from blocked IPs are also dropped").
  if (pkt.ip.proto == wire::IpProto::kIcmp &&
      (policy_->ip_blocked(pkt.ip.src) || policy_->ip_blocked(pkt.ip.dst))) {
    drop(pkt);
    return;
  }

  if (pkt.ip.is_fragment()) {
    handle_fragment(std::move(pkt), upstream);
    return;
  }

  switch (pkt.ip.proto) {
    case wire::IpProto::kTcp:
      handle_tcp(std::move(pkt), upstream);
      return;
    case wire::IpProto::kUdp:
      handle_udp(std::move(pkt), upstream);
      return;
    case wire::IpProto::kIcmp:
      forward(std::move(pkt), upstream);
      return;
  }
  forward(std::move(pkt), upstream);  // unknown protocol: pass
}

void Device::handle_fragment(wire::Packet pkt, bool upstream) {
  // The IP blocklist is enforced at the IP layer, before any buffering:
  // upstream traffic toward a blocked IP is local-initiated contact.
  if (upstream && policy_->ip_blocked(pkt.ip.dst)) {
    drop(pkt);
    return;
  }
  // Fragments are buffered and forwarded without reassembly; the DPI stages
  // never see them as complete datagrams — which is exactly why fragmenting
  // a ClientHello evades SNI censorship (§8). A patched device additionally
  // rebuilds a copy for inspection.
  if (config_.capabilities.ip_defragment_inspect) {
    if (auto whole = inspect_reasm_.push(pkt, net().now())) {
      inspect_reassembled(*whole, upstream);
    }
    inspect_reasm_.expire(net().now());
  }
  bool rejected = false;
  std::vector<wire::Packet> out =
      frag_engine_.push(std::move(pkt), net().now(), &rejected);
  if (rejected) {
    // The engine handed the unbuffered fragment back: the overload policy
    // decides whether it travels uninspected or dies here.
    for (wire::Packet& p : out) overload_action(std::move(p), upstream);
    return;
  }
  for (wire::Packet& p : out) {
    forward(std::move(p), upstream);
  }
}

void Device::handle_udp(wire::Packet pkt, bool upstream) {
  // Zero-copy: the QUIC fingerprint probe reads straight from the packet's
  // bytes. Every use of the view precedes any move of `pkt`.
  auto dgram = wire::parse_udp_view(pkt, /*verify_checksum=*/false);
  if (!dgram) {
    forward(std::move(pkt), upstream);
    return;
  }
  const FlowKey key = udp_flow_key(pkt, dgram->hdr, upstream);

  if (upstream && policy_->ip_blocked(key.remote)) {
    // No TCP flags to rewrite: plain drop of local-initiated UDP.
    drop(pkt);
    return;
  }

  if (ConnEntry* entry = conntrack_.find(key, net().now());
      entry != nullptr && entry->block == BlockMode::kQuicDrop) {
    // "once such a packet is detected, all following packets from the same
    // flow will be dropped, regardless of their length or the presence of
    // the QUIC fingerprint" (§5.2).
    entry->block_last_activity = net().now();
    drop(pkt);
    return;
  }

  if (upstream && policy_->quic_blocking &&
      quic::tspu_quic_fingerprint(dgram->payload, dgram->hdr.dst_port)) {
    ConnEntry* entry =
        conntrack_.track_udp(key, upstream, net().now(), /*create=*/true);
    if (entry == nullptr) {
      // Admission rejected: a saturated tracker cannot arm the QUIC drop,
      // so the fingerprinted packet meets the overload policy instead.
      overload_action(std::move(pkt), upstream);
      return;
    }
    ++stats_.triggers[static_cast<int>(TriggerType::kQuic)];
    count_trigger(TriggerType::kQuic);
    trace_verdict("trigger", key, net().now(), "quic");
    if (!draw_failure(*entry, TriggerType::kQuic)) {
      entry->block = BlockMode::kQuicDrop;
      entry->block_last_activity = net().now();
      drop(pkt);
      return;
    }
  }
  forward(std::move(pkt), upstream);
}

void Device::handle_tcp(wire::Packet pkt, bool upstream) {
  // The packet is parsed ONCE into a non-owning view and every dispatch
  // below reads from it — header fields are decoded by value and the
  // payload (and any SNI found inside it) stays a view into `pkt`. All view
  // uses precede the std::move(pkt) that ends this packet's handling; the
  // only owning re-serialization left is the RST/ACK rewrite, which mutates
  // bytes.
  auto seg_opt = wire::parse_tcp_view(pkt, /*verify_checksum=*/false);
  if (!seg_opt) {
    forward(std::move(pkt), upstream);
    return;
  }
  const wire::TcpView& seg = *seg_opt;
  const FlowKey key = tcp_flow_key(pkt, seg.hdr, upstream);
  ConnEntry* admitted =
      conntrack_.admit_tcp(key, seg.hdr.flags, upstream, net().now());
  if (admitted == nullptr) {
    // Saturated conntrack rejected the flow: the packet is never inspected
    // — fail-open lets even blocked traffic through (false-allow),
    // fail-closed eats innocent flows (false-block).
    overload_action(std::move(pkt), upstream);
    return;
  }
  ConnEntry& entry = *admitted;

  // ---- IP-based blocking (§5.2) ----
  // Enforcement is stateless and flag-based, which is what the remote
  // measurements exploit: an upstream-only device that never saw the blocked
  // IP's SYN still rewrites the local SYN/ACK to RST/ACK (Table 5).
  //  * upstream bare SYN toward a blocked IP (a local client initiating
  //    contact) -> dropped, so "the outgoing packets would be dropped";
  //  * any other upstream packet toward a blocked IP (responses to a
  //    connection the blocked IP initiated) -> payload stripped, flags
  //    changed to RST/ACK;
  //  * downstream packets FROM the blocked IP pass through untouched.
  if (upstream && policy_->ip_blocked(key.remote)) {
    ++stats_.triggers[static_cast<int>(TriggerType::kIpBased)];
    count_trigger(TriggerType::kIpBased);
    trace_verdict("trigger", key, net().now(), "ip_based");
    if (!rng_.bernoulli(config_.failures.ip_based)) {
      if (seg.hdr.flags.is_syn_only()) {
        drop(pkt);
      } else {
        ++stats_.rst_rewrites;
        TSPU_OBS_COUNT("tspu.device.rst_rewrite");
        trace_verdict("rst_rewrite", key, net().now(), "ip_based");
        forward(rst_ack_rewrite(pkt, seg.hdr), upstream);
      }
      return;
    }
    ++stats_.failures_injected[static_cast<int>(TriggerType::kIpBased)];
    TSPU_OBS_COUNT("tspu.failure_injected");
  }

  // ---- Active blocking state ----
  if (entry.block != BlockMode::kNone) {
    apply_block(entry, std::move(pkt), seg.hdr, upstream);
    return;
  }

  // ---- §8 patch: filter servers advertising tiny flow-control windows ----
  if (config_.capabilities.filter_small_windows && !upstream &&
      seg.hdr.flags.syn() &&
      seg.hdr.window < config_.capabilities.min_server_window) {
    drop(pkt);
    return;
  }

  // ---- Trigger evaluation: upstream ClientHello to :443 ----
  // Every upstream packet is inspected — the paper found the inspection
  // window now covers packets arriving later in a session, which is what
  // killed the TTL-limited-decoy evasion (§8).
  if (upstream && seg.hdr.dst_port == kTlsPort && !seg.payload.empty()) {
    if (auto sni = sniff_sni(seg.payload)) {
      if (auto rule = policy_->match_sni(*sni)) {
        evaluate_sni_trigger(entry, key, *rule, std::move(pkt), upstream);
        return;
      }
    } else if (config_.capabilities.tcp_reassembly && !entry.stream_overflow) {
      // §8 patch: reassemble the upstream byte stream so a ClientHello
      // split across TCP segments (or IP fragments of segments) is still
      // matched. "TCP flow reassembly is a standard feature for today's
      // DPIs, though it comes with a significantly higher requirement for
      // resources" — modeled by the per-flow stream cap.
      if (!conntrack_.charge_stream(seg.payload.size())) {
        // Device-wide reassembly byte budget exhausted: give up on this
        // flow exactly like the per-flow cap does. Bytes already buffered
        // for the flow go back to the budget.
        conntrack_.release_stream(entry);
        entry.stream_overflow = true;
      } else {
        entry.upstream_stream.insert(entry.upstream_stream.end(),
                                     seg.payload.begin(), seg.payload.end());
        if (entry.upstream_stream.size() > config_.stream_cap_bytes) {
          conntrack_.release_stream(entry);
          entry.stream_overflow = true;
        } else if (auto assembled = sniff_sni(entry.upstream_stream)) {
          if (auto rule = policy_->match_sni(*assembled)) {
            conntrack_.release_stream(entry);
            evaluate_sni_trigger(entry, key, *rule, std::move(pkt), upstream);
            return;
          }
        }
      }
    }
  }

  forward(std::move(pkt), upstream);
}

void Device::evaluate_sni_trigger(ConnEntry& entry, const FlowKey& key,
                                  const SniPolicy& rule, wire::Packet pkt,
                                  bool upstream) {
  const util::Instant now = net().now();
  if (entry.local_is_effective_client()) {
    if (rule.rst_ack) {
      ++stats_.triggers[static_cast<int>(TriggerType::kSniI)];
      count_trigger(TriggerType::kSniI);
      trace_verdict("trigger", key, now, "sni_i");
      if (!draw_failure(entry, TriggerType::kSniI)) {
        entry.block = BlockMode::kSniRstAck;
        entry.block_last_activity = now;
      }
      // The triggering ClientHello itself is delivered (Figure 2, SNI-I).
      forward(std::move(pkt), upstream);
      return;
    }
    if (rule.throttle) {
      ++stats_.triggers[static_cast<int>(TriggerType::kSniIII)];
      count_trigger(TriggerType::kSniIII);
      trace_verdict("trigger", key, now, "sni_iii");
      if (!draw_failure(entry, TriggerType::kSniIII)) {
        entry.block = BlockMode::kSniThrottle;
        entry.block_last_activity = now;
        entry.throttle_tokens = config_.throttle_burst_bytes;
        entry.throttle_refilled = now;
      }
      forward(std::move(pkt), upstream);
      return;
    }
    if (rule.delayed_drop) {
      ++stats_.triggers[static_cast<int>(TriggerType::kSniII)];
      count_trigger(TriggerType::kSniII);
      trace_verdict("trigger", key, now, "sni_ii");
      if (!draw_failure(entry, TriggerType::kSniII)) {
        entry.block = BlockMode::kSniDelayedDrop;
        entry.block_last_activity = now;
        entry.grace_remaining = sni_ii_grace_packets(key);
      }
      forward(std::move(pkt), upstream);
      return;
    }
  } else if (rule.backup_drop && entry.initiator == Initiator::kLocal) {
    // SNI-IV: the backup mechanism fires exactly when SNI-I cannot act on a
    // LOCAL-initiated flow whose roles were reversed (the "green" sequences
    // of Figure 4) and eats everything, including this very ClientHello.
    // Remote-initiated flows are not valid blocking prefixes at all (§5.3.2).
    ++stats_.triggers[static_cast<int>(TriggerType::kSniIV)];
    count_trigger(TriggerType::kSniIV);
    trace_verdict("trigger", key, now, "sni_iv");
    if (!draw_failure(entry, TriggerType::kSniIV)) {
      entry.block = BlockMode::kSniBackupDrop;
      entry.block_last_activity = now;
      drop(pkt);
      return;
    }
  }
  forward(std::move(pkt), upstream);
}

void Device::apply_block(ConnEntry& entry, wire::Packet pkt,
                         const wire::TcpHeader& hdr, bool upstream) {
  const util::Instant now = net().now();
  switch (entry.block) {
    case BlockMode::kSniRstAck:
      entry.block_last_activity = now;
      if (!upstream) {
        // Downstream packets are truncated and turned into RST/ACK; their
        // TTL/seq/ack survive (§5.2). Upstream packets pass — SNI-I acts
        // only on downstream traffic (§7.1.1).
        ++stats_.rst_rewrites;
        TSPU_OBS_COUNT("tspu.device.rst_rewrite");
        forward(rst_ack_rewrite(pkt, hdr), upstream);
        return;
      }
      forward(std::move(pkt), upstream);
      return;

    case BlockMode::kSniDelayedDrop:
      entry.block_last_activity = now;
      if (entry.grace_remaining > 0) {
        --entry.grace_remaining;
        forward(std::move(pkt), upstream);
        return;
      }
      drop(pkt);
      return;

    case BlockMode::kSniThrottle: {
      entry.block_last_activity = now;
      // Token-bucket policing: refill at ~650 B/s, drop what exceeds (§5.2:
      // "drops packets that exceed the rate limit").
      const double elapsed = (now - entry.throttle_refilled).as_seconds();
      entry.throttle_tokens =
          std::min(config_.throttle_burst_bytes,
                   entry.throttle_tokens +
                       elapsed * config_.throttle_bytes_per_sec);
      entry.throttle_refilled = now;
      const double cost = static_cast<double>(pkt.size());
      if (entry.throttle_tokens >= cost) {
        entry.throttle_tokens -= cost;
        forward(std::move(pkt), upstream);
      } else {
        drop(pkt);
      }
      return;
    }

    case BlockMode::kSniBackupDrop:
    case BlockMode::kQuicDrop:
      entry.block_last_activity = now;
      drop(pkt);
      return;

    case BlockMode::kNone:
      forward(std::move(pkt), upstream);
      return;
  }
}

}  // namespace tspu::core
