// Trigger-reliability measurement (§5.2.1, Table 1): fire N trials of each
// trigger type from a vantage point and count how often censorship FAILED
// to engage. Paths crossing multiple TSPU devices need every device to miss
// for a trial to slip through, which is why Rostelecom/OBIT (2 devices on
// path) fail orders of magnitude less often than ER-Telecom (1 device).
#pragma once

#include <string>
#include <vector>

#include "runner/checkpoint.h"
#include "topo/scenario.h"

namespace tspu::measure {

enum class TriggerKind { kSniI, kSniII, kSniIV, kQuic, kIpBased };

std::string trigger_kind_name(TriggerKind k);

/// The domains the SNI trigger kinds test.
struct ReliabilityConfig {
  std::string sni_i_domain = "facebook.com";
  std::string sni_ii_domain = "nordvpn.com";
  std::string sni_iv_domain = "twitter.com";
};

/// VP-side service port the IP-based trials target (the Tor node SYNs to
/// it and the vantage point answers with SYN/ACK).
inline constexpr std::uint16_t kReliabilityServicePort = 9090;

/// One trial of one trigger kind from `vp`; true when censorship failed to
/// engage (the trial slipped through). SNI trials target the US machines;
/// IP-based trials send SYNs from the Tor node and SYN/ACK from the vantage
/// point, checking for the RST/ACK rewrite (§5.2.1). Installs the vantage
/// point's IP-based service listener on demand. Callers isolate consecutive
/// trials with Scenario::begin_trial.
bool reliability_trial(topo::Scenario& scenario, topo::VantagePoint& vp,
                       TriggerKind kind, const ReliabilityConfig& config = {});

/// Sharded reliability trials over one (ISP, trigger) cell with
/// checkpoint/resume: item i is one reliability_trial isolated by
/// Scenario::begin_trial(item_seed(seed, i)); the returned flags are in
/// item order and — together with the merged metrics/trace output — are
/// byte-identical to an uninterrupted run at any job count. Passing a
/// default CheckpointOptions (empty path) runs without snapshot I/O.
/// Throws runner::CampaignInterrupted on SIGTERM/abort_after_items.
std::vector<bool> sharded_reliability_trials(
    const topo::ScenarioConfig& scenario_config, const std::string& isp,
    TriggerKind kind, std::size_t n_trials, std::uint64_t seed, int jobs,
    const runner::CheckpointOptions& ckpt = {},
    const ReliabilityConfig& config = {});

}  // namespace tspu::measure
