// Central blocking policy — the model of Roskomnadzor's control plane.
//
// Every TSPU device in a deployment shares one Policy object, which is the
// architectural point of the paper: devices are centrally ordered and
// centrally configured, so blocklists and behaviors are uniform across ISPs
// at any instant (§5.1), unlike the per-ISP blocklists of the old
// decentralized model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/flat_map.h"
#include "util/ip.h"

namespace tspu::core {

/// What SNI-based behaviors apply to a domain (§5.2). A domain may carry
/// several: SNI-IV targets are a subset of SNI-I targets.
struct SniPolicy {
  bool rst_ack = false;       ///< SNI-I: rewrite downstream to RST/ACK
  bool delayed_drop = false;  ///< SNI-II: 5-8 grace packets, then drop both ways
  bool throttle = false;      ///< SNI-III: police the flow to ~650 B/s
  bool backup_drop = false;   ///< SNI-IV: bidirectional drop when SNI-I can't act

  bool any() const { return rst_ack || delayed_drop || throttle || backup_drop; }
};

class Policy {
 public:
  /// Registers `domain` (and all its subdomains) with the given behaviors.
  void add_sni(const std::string& domain, SniPolicy behavior);

  /// Exact-or-parent-domain lookup; nullopt when the SNI is not targeted.
  /// Takes a string_view so zero-copy inspection paths (tls::find_sni_view
  /// pointing into the packet) probe without materializing a std::string —
  /// no temporary is built on miss or hit.
  std::optional<SniPolicy> match_sni(std::string_view host) const;

  void block_ip(util::Ipv4Addr ip) { blocked_ips_.insert(ip); }
  void unblock_ip(util::Ipv4Addr ip) { blocked_ips_.erase(ip); }
  bool ip_blocked(util::Ipv4Addr ip) const { return blocked_ips_.count(ip); }

  /// QUIC v1 fingerprint filtering toggle (switched on March 4, 2022).
  bool quic_blocking = true;

  /// Ordered so sweeps iterate in a deterministic, reproducible order —
  /// tspulint bans unordered containers in src/tspu for this reason.
  const std::set<util::Ipv4Addr>& blocked_ips() const {
    return blocked_ips_;
  }

  /// Distinct registered domains: keys are lowercased, so spellings that
  /// differ only in case count once.
  std::size_t sni_rule_count() const { return rules_by_suffix_.size(); }

 private:
  /// SNI rules keyed by REVERSED lowercase domain in a sorted vector:
  /// match_sni does one longest-prefix binary search here instead of a
  /// per-label map probe per suffix. The transparent comparator lets the
  /// search run on string_view needles without temporaries. mutable because
  /// lookups consolidate the FlatMap's insertion tail (iteration order is
  /// unaffected).
  mutable util::FlatMap<std::string, SniPolicy, std::less<>> rules_by_suffix_;
  std::set<util::Ipv4Addr> blocked_ips_;
};

using PolicyPtr = std::shared_ptr<Policy>;

}  // namespace tspu::core
