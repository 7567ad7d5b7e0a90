// The Figure-1 measurement testbed: three residential vantage points inside
// Rostelecom (AS12389), ER-Telecom (AS50544) and OBIT (AS8492), two US
// measurement machines in one network, a Paris measurement machine sharing a
// data center with a (blocked) Tor entry node, and TSPU devices placed to
// match §5.2.1/§7.1.1:
//
//   Rostelecom: symmetric device within the first hops + an upstream-only
//               device one hop behind it (same AS, asymmetric return path)
//   OBIT:       symmetric device + upstream-only devices at the first link
//               of each transit (Rostelecom-transit / RasCom, by destination)
//   ER-Telecom: a single symmetric device
//
// Per-device failure rates are calibrated so the *observed* end-to-end
// failure percentages reproduce Table 1 (paths crossing two devices need
// both to fail).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ispdpi/blocklist.h"
#include "netsim/host.h"
#include "netsim/router.h"
#include "topo/corpus.h"
#include "topo/world.h"
#include "tspu/device.h"

namespace tspu::topo {

struct VantagePoint {
  std::string isp;                 ///< "Rostelecom", "ER-Telecom", "OBIT"
  netsim::Host* host = nullptr;
  util::Ipv4Addr resolver;         ///< the ISP's DNS resolver
  util::Ipv4Addr blockpage;        ///< the ISP's blockpage address
  /// Ground truth (never consulted by measure::* code): devices on the
  /// upstream path, nearest first.
  std::vector<core::Device*> devices;
  /// Of those, how many see downstream traffic too.
  int symmetric_devices = 0;
};

struct ScenarioConfig : DeploymentConfig {
  CorpusConfig corpus;
  std::uint64_t seed = 7;
  /// True models Feb 26 - Mar 4, 2022: twitter.com / fbcdn.net throttled
  /// (SNI-III) instead of RST/ACK-blocked.
  bool throttling_era = false;
  /// Zeroes all per-device failure rates. State-management experiments use
  /// this: the paper handled stochastic device misses by repeating every
  /// measurement >5 times (§3); deterministic devices give the same effect.
  bool perfect_devices = false;
  /// §8 "patch" capabilities applied to every device in the deployment
  /// (all off = the device as observed in 2022).
  core::DeviceCapabilities capabilities;
  // The inherited `floods` give each vantage-point ISP a dedicated
  // in-network flood source whose spoofed packets cross that ISP's devices
  // upstream toward a silent sink abroad.
};

class Scenario : public World {
 public:
  explicit Scenario(ScenarioConfig config = {});

  const DomainCorpus& corpus() const { return corpus_; }

  std::vector<VantagePoint>& vantage_points() { return vps_; }
  VantagePoint& vp(const std::string& isp_name);

  /// us_machine(0): normal TLS server; us_machine(1): split-handshake TLS
  /// server (for SNI-IV tests, §6.2).
  netsim::Host& us_machine(int i) { return *us_mm_.at(i); }
  /// A quiet US machine with no services and no RST-on-closed-port, used for
  /// fully crafted packet-sequence experiments (§5.3.2, §5.3.3).
  netsim::Host& us_raw_machine() { return *us_raw_; }
  netsim::Host& paris_machine() { return *paris_mm_; }
  netsim::Host& tor_node() { return *tor_node_; }

  /// Addresses of the 6 additional out-registry blocked IPs (§5.2: VPN
  /// providers and Google services) besides the Tor node.
  const std::vector<util::Ipv4Addr>& extra_blocked_ips() const {
    return extra_blocked_ips_;
  }

  /// Flips the twitter.com/fbcdn.net policy between throttling (SNI-III,
  /// the Feb 26 - Mar 4 era) and RST/ACK (SNI-I, March 4 onward).
  void set_throttling_era(bool on);

 private:
  DomainCorpus corpus_;
  std::vector<VantagePoint> vps_;
  std::vector<netsim::Host*> us_mm_;
  netsim::Host* us_raw_ = nullptr;
  netsim::Host* paris_mm_ = nullptr;
  netsim::Host* tor_node_ = nullptr;
  std::vector<util::Ipv4Addr> extra_blocked_ips_;
  std::vector<std::shared_ptr<ispdpi::IspBlocklist>> blocklists_;
};

}  // namespace tspu::topo
