#include "measure/reliability.h"

#include <memory>

#include "measure/behavior.h"
#include "quic/quic.h"

namespace tspu::measure {

std::string trigger_kind_name(TriggerKind k) {
  switch (k) {
    case TriggerKind::kSniI: return "SNI-I";
    case TriggerKind::kSniII: return "SNI-II";
    case TriggerKind::kSniIV: return "SNI-IV";
    case TriggerKind::kQuic: return "QUIC";
    case TriggerKind::kIpBased: return "IP-Based";
  }
  return "?";
}

bool reliability_trial(topo::Scenario& scenario, topo::VantagePoint& vp,
                       TriggerKind kind, const ReliabilityConfig& config) {
  auto& net = scenario.net();
  netsim::Host& client = *vp.host;
  switch (kind) {
    case TriggerKind::kSniI: {
      auto res = test_sni(net, client, scenario.us_machine(0).addr(),
                          config.sni_i_domain, ClassifyDepth::kQuick);
      return res.outcome == SniOutcome::kOk;
    }
    case TriggerKind::kSniII: {
      auto res = test_sni(net, client, scenario.us_machine(0).addr(),
                          config.sni_ii_domain, ClassifyDepth::kStandard);
      return res.outcome == SniOutcome::kOk;
    }
    case TriggerKind::kSniIV: {
      // Split handshake suppresses SNI-I; only SNI-IV can block here.
      auto res = test_sni_split_handshake(net, client,
                                          scenario.us_machine(1).addr(),
                                          config.sni_iv_domain);
      return res.outcome == SniOutcome::kOk;
    }
    case TriggerKind::kQuic: {
      auto res = test_quic(net, client, scenario.us_machine(0).addr(),
                           quic::kVersion1);
      return !res.blocked;
    }
    case TriggerKind::kIpBased: {
      if (!client.listening_on(kReliabilityServicePort)) {
        client.listen(kReliabilityServicePort, netsim::TcpServerOptions{});
      }
      auto res = test_ip_blocking(net, scenario.tor_node(), client.addr(),
                                  kReliabilityServicePort);
      return res == IpBlockOutcome::kOpen;
    }
  }
  return false;
}

namespace {

/// One worker's replica: a Scenario plus its resolved vantage point.
struct ReliabilityShard {
  std::unique_ptr<topo::Scenario> scenario;
  topo::VantagePoint* vp = nullptr;
};

}  // namespace

std::vector<bool> sharded_reliability_trials(
    const topo::ScenarioConfig& scenario_config, const std::string& isp,
    TriggerKind kind, std::size_t n_trials, std::uint64_t seed, int jobs,
    const runner::CheckpointOptions& ckpt, const ReliabilityConfig& config) {
  auto make_ctx = [&](int) {
    ReliabilityShard shard;
    shard.scenario = std::make_unique<topo::Scenario>(scenario_config);
    shard.vp = &shard.scenario->vp(isp);
    return shard;
  };
  auto fn = [&](ReliabilityShard& shard, std::size_t i) {
    shard.scenario->begin_trial(runner::item_seed(seed, i));
    return reliability_trial(*shard.scenario, *shard.vp, kind, config);
  };

  // The campaign identity guards resume against a snapshot from a different
  // cell: a different scenario seed / era, ISP, trigger, trial count, root
  // seed, or trigger-domain set all change the digest.
  util::StateWriter id;
  id.str("sharded_reliability.v1");
  id.u64(scenario_config.seed);
  id.boolean(scenario_config.throttling_era);
  id.boolean(scenario_config.perfect_devices);
  id.str(isp);
  id.str(trigger_kind_name(kind));
  id.u64(static_cast<std::uint64_t>(n_trials));
  id.u64(seed);
  id.str(config.sni_i_domain);
  id.str(config.sni_ii_domain);
  id.str(config.sni_iv_domain);

  struct Codec {
    std::uint64_t ident;
    std::uint64_t identity() const { return ident; }
    void encode(const bool& unblocked, util::StateWriter& w) const {
      w.boolean(unblocked);
    }
    bool decode(bool& unblocked, util::StateReader& r) const {
      r.boolean(unblocked);
      return r.ok();
    }
  };

  return runner::checkpointed_map(n_trials, jobs, make_ctx, fn,
                                  Codec{util::fnv1a64(id.data())}, ckpt);
}

}  // namespace tspu::measure
