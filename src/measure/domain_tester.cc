#include "measure/domain_tester.h"

#include "ispdpi/resolver.h"
#include "measure/common.h"
#include "runner/runner.h"

namespace tspu::measure {

bool DomainVerdict::tspu_blocked_everywhere() const {
  if (tspu.empty()) return false;
  for (SniOutcome o : tspu) {
    if (o == SniOutcome::kOk || o == SniOutcome::kNoConnection) return false;
  }
  return true;
}

bool DomainVerdict::tspu_blocked_anywhere() const {
  for (SniOutcome o : tspu) {
    if (o != SniOutcome::kOk && o != SniOutcome::kNoConnection) return true;
  }
  return false;
}

DomainVerdict DomainTester::test_domain(const topo::DomainInfo& domain,
                                        const DomainTestConfig& config) {
  auto& net = scenario_.net();
  const util::Ipv4Addr tls_server = scenario_.us_machine(0).addr();

  DomainVerdict v;
  v.domain = domain.name;
  v.category = domain.category;
  v.in_tranco = domain.in_tranco;
  v.in_registry = domain.in_registry;

  for (topo::VantagePoint& vp : scenario_.vantage_points()) {
    // SNI test: ClientHello with the test SNI toward the US measurement
    // machine (§6.2 — the SNI, not the destination, is what's tested).
    SniOutcome outcome;
    if (config.retry) {
      // Majority vote over fresh-connection attempts. "Blocked" is forgeable
      // in both directions (loss fakes a block, a fail-open device fakes a
      // pass), so the full symmetric vote applies; an attempt that never
      // connected tells us nothing and counts as unanswered.
      SniOutcome rep = SniOutcome::kNoConnection;
      RetryPolicy symmetric = config.retry_policy;
      symmetric.positive_conclusive = false;
      const ProbeVerdict pv =
          run_with_retry(net, symmetric, [&]() -> std::optional<bool> {
            const SniTestResult r =
                test_sni(net, *vp.host, tls_server, domain.name, config.depth);
            if (r.outcome == SniOutcome::kNoConnection) return std::nullopt;
            const bool blocked = r.outcome != SniOutcome::kOk;
            // Remember one decisive outcome per side; the winner's is the
            // representative verdict reported in `tspu`.
            if (blocked) rep = r.outcome;
            return blocked;
          });
      v.tspu_confidence.push_back(pv);
      if (pv.verdict == Verdict::kUnreachable) {
        outcome = SniOutcome::kNoConnection;
      } else if (pv.confirmed_true() ||
                 (pv.verdict == Verdict::kInconclusive &&
                  pv.positive > pv.negative)) {
        outcome = rep;
      } else {
        outcome = SniOutcome::kOk;
      }
    } else {
      outcome =
          test_sni(net, *vp.host, tls_server, domain.name, config.depth)
              .outcome;
    }
    if (config.probe_sni_iv && outcome == SniOutcome::kRstAck) {
      const SniOutcome split = probe_sni_iv(vp, domain.name);
      if (split == SniOutcome::kFullDrop) outcome = SniOutcome::kFullDrop;
    }
    v.tspu.push_back(outcome);

    if (config.run_dns) {
      // One A query to the ISP's resolver; blockpage answer = ISP block.
      const std::uint16_t qid = ispdpi::send_dns_query(
          *vp.host, vp.resolver, domain.name, fresh_port());
      net.sim().run_until_idle();
      auto answer = ispdpi::read_dns_answer(*vp.host, qid);
      v.isp_blockpage.push_back(answer && *answer == vp.blockpage);
    }
  }
  return v;
}

std::vector<DomainVerdict> DomainTester::run(
    const std::vector<const topo::DomainInfo*>& domains,
    const DomainTestConfig& config) {
  std::vector<DomainVerdict> out;
  out.reserve(domains.size());
  for (std::size_t i = 0; i < domains.size(); ++i) {
    scenario_.begin_trial(runner::item_seed(0, i));
    out.push_back(test_domain(*domains[i], config));
  }
  return out;
}

SniOutcome DomainTester::probe_sni_iv(topo::VantagePoint& vp,
                                      const std::string& domain) {
  return test_sni_split_handshake(scenario_.net(), *vp.host,
                                  scenario_.us_machine(1).addr(), domain)
      .outcome;
}

}  // namespace tspu::measure
