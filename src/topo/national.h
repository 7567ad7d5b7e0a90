// National-scale RuNet model for the remote measurements of §7.2/§7.3.
//
// The paper scanned 4,005,138 endpoints across 4,986 ASes (top-10 open
// ports from Censys) and found 1,013,600 endpoints in 650 ASes behind
// TSPU-like fragmentation behavior. We reproduce the *shape* at a
// configurable scale (default 1:100): a backbone with regional routers,
// heavy-tailed AS sizes, TSPU placement near network leaves for residential
// ISPs, transit-installed devices providing "censorship-as-a-service" to
// small ISPs (Figure 11), and asymmetric-routing ASes whose upstream-only /
// downstream-only devices populate the disagreement cells of Table 5.
#pragma once

#include <string>
#include <vector>

#include "netsim/host.h"
#include "topo/corpus.h"
#include "topo/world.h"
#include "tspu/device.h"
#include "util/rng.h"

namespace tspu::topo {

enum class AsKind {
  kResidential,  ///< big eyeball ISPs: CPE ports, TSPU near access
  kMixed,        ///< enterprise/regional: some TSPU at borders
  kDatacenter,   ///< hosting: server ports, effectively no TSPU
  kSmallLeaf,    ///< tiny org ISPs, may ride a transit's TSPU (Fig 11)
};

std::string as_kind_name(AsKind k);

/// One scan target (IP:port), with ground truth for validating the probers.
struct Endpoint {
  netsim::Host* host = nullptr;
  util::Ipv4Addr addr;
  std::uint16_t port = 0;
  int as_index = -1;
  /// Ground truth: a TSPU with downstream visibility sits on the inbound
  /// path (what the fragmentation fingerprint can see).
  bool tspu_downstream_visible = false;
  /// Ground truth: a TSPU sees the endpoint's upstream traffic (what the
  /// echo technique and IP-blocking rewrite can see).
  bool tspu_upstream_visible = false;
  /// Ground truth: router hops between the TSPU link and this endpoint
  /// (-1 when no downstream-visible device exists).
  int tspu_hops_from_endpoint = -1;
  /// Nmap-style device label used by the ethics filter ("router", "switch",
  /// "server", "unknown").
  std::string device_label;
  bool echo_server = false;  ///< runs a TCP/7 echo service
};

struct AsInfo {
  std::string name;
  AsKind kind = AsKind::kSmallLeaf;
  util::Ipv4Prefix prefix;
  bool has_tspu = false;           ///< own device(s) in-AS
  bool behind_transit_tspu = false;///< covered by its transit's device
  bool asymmetric_upstream = false;///< upstream-only transit device on exit
  bool asymmetric_downstream = false;///< downstream-only device on return
  std::size_t endpoint_count = 0;
};

struct NationalConfig : DeploymentConfig {
  /// 1.0 reproduces the paper's absolute endpoint counts (4M endpoints —
  /// slow); benches default to 0.01.
  double endpoint_scale = 0.01;
  std::size_t n_ases = 500;        ///< scaled from 4,986 (1:10)
  std::uint64_t seed = 650;
  /// Number of echo servers (TCP/7) — kept at the paper's absolute scale
  /// since the echo experiment was small (Table 4).
  std::size_t echo_servers = 1404;
  // The inherited `floods` are replayed from a host outside RuNet toward
  // silent sink hosts behind TSPU devices (one sink per covered AS when a
  // campaign names no targets of its own): flood traffic must never touch
  // real endpoints, which begin_trial() does not reset.
};

class NationalTopology : public World {
 public:
  explicit NationalTopology(NationalConfig config = {});

  const std::vector<Endpoint>& endpoints() const { return endpoints_; }
  const std::vector<AsInfo>& ases() const { return ases_; }

  /// The Paris measurement machine (fragmentation probes, Quack).
  netsim::Host& prober() { return *prober_; }
  /// The blocked Tor-entry-node machine, same data center as the prober.
  netsim::Host& tor_node() { return *tor_node_; }

 private:
  void build(const NationalConfig& config);

  std::vector<Endpoint> endpoints_;
  std::vector<AsInfo> ases_;
  netsim::Host* prober_ = nullptr;
  netsim::Host* tor_node_ = nullptr;
};

/// The ten most-open ports of the paper's Censys scan (Figure 9).
inline constexpr std::uint16_t kScanPorts[] = {21,   22,   80,   443,  445,
                                               1723, 3389, 7547, 8080, 58000};

}  // namespace tspu::topo
