// Bulk connectivity testing over domain lists (§6): what does the TSPU
// block, what do the ISPs' own DNS blockpages cover, and by which SNI type?
#pragma once

#include <map>
#include <string>
#include <vector>

#include "measure/behavior.h"
#include "measure/retry.h"
#include "topo/scenario.h"

namespace tspu::measure {

struct DomainVerdict {
  std::string domain;
  topo::Category category;
  bool in_tranco = false;
  bool in_registry = false;
  /// TSPU verdicts, one per vantage point (same order as
  /// scenario.vantage_points()).
  std::vector<SniOutcome> tspu;
  /// ISP DNS verdicts: true when the resolver served the ISP's blockpage.
  std::vector<bool> isp_blockpage;
  /// Per-VP vote tallies, parallel to `tspu`; filled only when
  /// DomainTestConfig::retry is set. `tspu` then holds the representative
  /// outcome of the winning side (or kNoConnection when kUnreachable).
  std::vector<ProbeVerdict> tspu_confidence;

  bool tspu_blocked_everywhere() const;
  bool tspu_blocked_anywhere() const;
};

struct DomainTestConfig {
  /// kStandard detects SNI-II on top of SNI-I; kQuick halves the cost.
  ClassifyDepth depth = ClassifyDepth::kStandard;
  bool run_dns = true;
  /// Also probe SNI-IV (split-handshake flow) for domains that showed SNI-I.
  bool probe_sni_iv = false;
  /// When true, each per-VP SNI test is a majority vote under retry_policy:
  /// kNoConnection attempts count as unanswered, and the blocked observation
  /// is symmetric (loss forges blocks, fail-open forges passes).
  bool retry = false;
  RetryPolicy retry_policy;
};

class DomainTester {
 public:
  explicit DomainTester(topo::Scenario& scenario) : scenario_(scenario) {}

  /// Tests every listed domain from every vantage point, isolating domain i
  /// with Scenario::begin_trial(runner::item_seed(0, i)).
  std::vector<DomainVerdict> run(
      const std::vector<const topo::DomainInfo*>& domains,
      const DomainTestConfig& config = {});

  /// Tests one domain from every vantage point. Does NOT isolate: callers
  /// looping over domains call Scenario::begin_trial before each one, as
  /// run() and the sharded benches do.
  DomainVerdict test_domain(const topo::DomainInfo& domain,
                            const DomainTestConfig& config = {});

  /// SNI-IV probe for one domain from one vantage point: connects through
  /// the split-handshake measurement machine; kFullDrop = SNI-IV engaged.
  SniOutcome probe_sni_iv(topo::VantagePoint& vp, const std::string& domain);

 private:
  topo::Scenario& scenario_;
};

}  // namespace tspu::measure
