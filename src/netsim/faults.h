// Deterministic fault injection for links and TSPU devices.
//
// The paper's methodology quietly assumes failure: every measurement is
// repeated ">5 times to account for the TSPU failure or transient routing
// changes" (§3), and remote scans must tolerate unreachable endpoints. This
// module makes those failure modes first-class and *seedable* so the
// retry/confidence layer (measure/retry.h) can be stress-tested:
//
//   - bursty loss via a Gilbert–Elliott two-state chain (alongside the
//     existing i.i.d. Network::set_link_loss knob),
//   - packet duplication, reordering, and payload corruption,
//   - latency jitter and link flaps (down/up windows on the sim clock),
//   - TSPU device faults: fail-open, fail-closed, and mid-flow reboots
//     that wipe conntrack/fragment state (the "TSPU failure" of §3).
//
// Determinism contract: every random draw comes from a per-link util::Rng
// whose seed derives statelessly from (fault seed root, link endpoints), and
// the root is rotated by begin_trial() — so sharded runs stay byte-identical
// for any TSPU_BENCH_JOBS value regardless of packet order or when a link's
// fault state is lazily created. Flap/reboot windows are expressed relative
// to the trial epoch (the reseed instant), not absolute sim time, because
// begin_trial advances the virtual clock ~1000 s between items.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ip.h"
#include "util/rng.h"
#include "util/time.h"

namespace tspu::netsim {

/// Two-state Markov loss chain (Gilbert–Elliott). In the "good" state
/// packets are lost with `loss_good`, in the "bad" state with `loss_bad`;
/// the chain transitions after each packet. With loss_bad = 1 this yields
/// loss bursts whose mean length is 1 / p_exit_bad — the transient-outage
/// shape that i.i.d. loss cannot produce.
struct GilbertElliott {
  double p_enter_bad = 0.0;  ///< P(good -> bad) per packet; 0 disables
  double p_exit_bad = 0.25;  ///< P(bad -> good) per packet
  double loss_good = 0.0;
  double loss_bad = 1.0;
  /// Chain clock in virtual steps per second. 0 (the default) is the
  /// classic packet-clocked GE chain: one transition per packet, so a
  /// burst freezes across an idle gap (a retry backoff cannot decorrelate
  /// attempts) yet a back-to-back fragment train gives it dozens of
  /// chances to start mid-train. A positive rate switches the chain to
  /// TIME clocking: packets only SAMPLE the current state (a train sent
  /// in one instant sees one state — a burst eats all of it or none),
  /// and the state advances between events via the closed-form k-step
  /// transition over the elapsed gap (one RNG draw per gap). That models
  /// outages that start and end on the wall clock, which is what makes
  /// spaced retry attempts genuinely independent.
  double relax_steps_per_second = 0.0;

  bool enabled() const { return p_enter_bad > 0.0; }

  /// Stationary probability of being in the bad state.
  double stationary_bad() const;
  /// Long-run mean loss rate (closed form; tested against simulation).
  double mean_loss() const;
  /// Mean sojourn in the bad state, in packets (== mean burst length when
  /// loss_bad is 1).
  double mean_burst_length() const;

  /// P(chain is bad after `k` steps | currently bad == `bad_now`) — the
  /// exact two-state k-step transition. Fractional k interpolates the
  /// matrix power, which is what an idle-time relaxation needs.
  double p_bad_after(bool bad_now, double k) const;

  /// Convenience: parameters for total-outage bursts (loss_bad = 1) with
  /// the given long-run loss rate and mean burst length in packets.
  static GilbertElliott bursty(double target_mean_loss,
                               double mean_burst_packets);
};

/// Per-link chain state. step() advances the chain one packet and reports
/// whether that packet is lost.
struct GilbertElliottState {
  bool bad = false;
  bool step(const GilbertElliott& params, util::Rng& rng);
  /// Draws a loss from the CURRENT state without transitioning — the
  /// per-packet draw of the time-clocked mode.
  bool sample(const GilbertElliott& params, util::Rng& rng);
  /// Applies `idle` worth of virtual steps (params.relax_steps_per_second)
  /// in one closed-form draw. No-op when the rate is 0 or idle is empty.
  void relax(const GilbertElliott& params, util::Duration idle,
             util::Rng& rng);
};

/// One down/up window, relative to the trial epoch (the last fault reseed).
struct FlapWindow {
  util::Duration down_at;
  util::Duration up_at;
};

/// True when `since_epoch` falls inside any [down_at, up_at) window.
bool flap_down(const std::vector<FlapWindow>& flaps,
               util::Duration since_epoch);

/// Everything that can go wrong on a link. Installed network-wide via
/// Network::set_default_link_faults; each link direction draws from its own
/// stream.
struct LinkFaultPlan {
  /// Extra i.i.d. loss drawn from the link's own fault stream (the legacy
  /// set_link_loss knob draws from a single shared RNG instead).
  double iid_loss = 0.0;
  /// Bursty loss; enabled when burst.p_enter_bad > 0.
  GilbertElliott burst;
  /// Probability a packet is transmitted twice (both copies then face the
  /// loss/corruption draws independently).
  double duplicate_prob = 0.0;
  /// Probability a packet is delayed by `reorder_delay`, letting later
  /// packets overtake it.
  double reorder_prob = 0.0;
  util::Duration reorder_delay = util::Duration::millis(3);
  /// Probability one payload byte is flipped in flight.
  double corrupt_prob = 0.0;
  /// Uniform extra delay in [0, jitter_max) added per packet.
  util::Duration jitter_max;
  /// Hard outage windows: packets sent or *delivered* while down are lost.
  std::vector<FlapWindow> flaps;

  bool any() const;
};

/// Counters for what the fault layer did (per Network, reset on reseed).
struct LinkFaultStats {
  std::uint64_t dropped_iid = 0;
  std::uint64_t dropped_burst = 0;
  std::uint64_t dropped_down = 0;  ///< lost to a flap window
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;

  std::uint64_t dropped_total() const {
    return dropped_iid + dropped_burst + dropped_down;
  }
};

/// How a TSPU device behaves while inside a fault window.
enum class DeviceFailMode {
  kFailOpen,    ///< forwards everything uninspected (censorship vanishes)
  kFailClosed,  ///< drops everything (the path hard-fails)
};

/// Fault plan for a TSPU device (core::DeviceConfig::faults). Windows and
/// reboot instants are relative to the trial epoch, captured at reseed().
struct DeviceFaultPlan {
  DeviceFailMode flap_mode = DeviceFailMode::kFailOpen;
  /// Outage windows during which flap_mode applies instead of inspection.
  std::vector<FlapWindow> flaps;
  /// Mid-flow reboot instants: at each, conntrack, fragment queues, and
  /// inspection reassembly are wiped (must be sorted ascending).
  std::vector<util::Duration> reboots;
  /// Also wipe state when a flap window ends — models the outage being a
  /// reboot rather than a bypass.
  bool reboot_on_recovery = true;

  bool any() const { return !flaps.empty() || !reboots.empty(); }
};

/// Stateless per-link stream seed: mixes the root with the directed link
/// endpoints via splitmix64 so lazily-created link states are independent
/// of creation order.
std::uint64_t fault_stream_seed(std::uint64_t root, std::uint32_t from,
                                std::uint32_t to);

// ---------------------------------------------------------------------------
// Flood campaigns: deterministic state-exhaustion attack traffic.
//
// Each campaign is a bursty train of crafted packets chosen to pin entries in
// one TSPU state table: SYN floods park half-open conntrack entries (60 s /
// 30 s timeouts), bare-ACK churn parks long-lived non-SYN entries (420/480 s),
// and fragment floods open reassembly queues that can never complete (5 s age
// discard). A FloodDriver replays campaigns from one source host on the sim
// clock; arm() restarts the schedule with a fresh spoof stream, which is how
// begin_trial() keeps flooded scans byte-identical across job counts.

class Host;

enum class FloodKind {
  kSynFlood,       ///< spoofed SYNs: half-open conntrack entries
  kFragmentFlood,  ///< never-completing fragment queues (MF set, no tail)
  kHalfOpenChurn,  ///< spoofed bare ACKs: long-lived non-SYN entries
};

const char* flood_kind_name(FloodKind k);

/// One background flood campaign, scheduled relative to arm() (the trial
/// epoch). Topology code fills `targets`/`spoof_base` with sensible defaults
/// when left unset, so tests usually only pick kind/rate/duration.
struct FloodCampaign {
  FloodKind kind = FloodKind::kSynFlood;
  /// Offset of the first burst from arm(); keep > 0 so a muted begin_trial
  /// never emits flood packets itself.
  util::Duration start = util::Duration::millis(10);
  /// Total campaign length. Finite by construction: run_until_idle() must
  /// terminate even mid-flood.
  util::Duration duration = util::Duration::seconds(5);
  int packets_per_burst = 32;
  util::Duration burst_interval = util::Duration::millis(50);
  /// Destinations, rotated per packet. Empty = let the topology choose.
  std::vector<util::Ipv4Addr> targets;
  std::uint16_t target_port = 9;
  /// Spoofed-source pool [spoof_base, spoof_base + spoof_count). Unset
  /// (0.0.0.0) = let the topology choose an address range that no real host
  /// answers from.
  util::Ipv4Addr spoof_base;
  std::uint32_t spoof_count = 1024;
  /// Payload bytes per flood fragment (rounded down to a multiple of 8).
  std::size_t fragment_payload = 512;

  bool active() const {
    return packets_per_burst > 0 && duration > util::Duration() &&
           burst_interval > util::Duration();
  }
};

/// Replays flood campaigns from one source host via self-rescheduling sim
/// callbacks. Every random draw (spoofed source, ports, IPIDs, target
/// rotation) comes from a private RNG reseeded by arm(), and callbacks from
/// a previous arm() generation no-op without touching it — so a trial's
/// flood traffic depends only on (campaign config, arm seed).
class FloodDriver {
 public:
  FloodDriver(Host& source, std::vector<FloodCampaign> campaigns);

  FloodDriver(const FloodDriver&) = delete;
  FloodDriver& operator=(const FloodDriver&) = delete;

  /// (Re)starts every campaign relative to the current sim instant: bumps
  /// the generation (orphaning callbacks scheduled by a previous trial) and
  /// reseeds the spoof stream. Called at topology construction and again by
  /// topo::World::begin_trial() right after the device and link reseeds.
  void arm(std::uint64_t seed);

  const std::vector<FloodCampaign>& campaigns() const { return campaigns_; }
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void fire(std::size_t idx, std::uint64_t generation);
  void send_one(const FloodCampaign& c);

  Host& source_;
  std::vector<FloodCampaign> campaigns_;
  std::vector<util::Instant> end_at_;  ///< per-campaign stop time, set by arm()
  util::Rng rng_{0xf100dull};
  std::uint64_t generation_ = 0;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace tspu::netsim
