// The per-item reset both simulated worlds share.
//
// Scenario (the Figure-1 testbed) and NationalTopology (the §7 national
// model) derive from World. The base owns everything an item can observe
// after an earlier item ran on the same replica: the Network, the shared
// Policy, the TSPU devices, the background flood drivers and the hosts the
// world built. begin_trial() resets all of it, so an item run after it sees
// nothing of the items before it on the same replica: the paper's rule (§3)
// that each test is independent of earlier ones, which it kept with a fresh
// source port per test "to prevent residual censorship affecting results of
// subsequent tests".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/faults.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "tspu/device.h"

namespace tspu::topo {

/// Deployment-wide settings both worlds share: injected faults, the state
/// tables' capacity budgets and overload policy, and background floods.
/// Every TSPU device of a world gets the same budgets, policy and fault plan
/// (§8's "provisioned with enough computation and memory resources" knob).
struct DeploymentConfig {
  /// When non-empty, installed as the network-wide default link fault plan
  /// (netsim/faults.h): bursty loss, duplication, reordering, corruption,
  /// jitter, flap windows. Fault RNG streams are rotated by begin_trial(),
  /// so faulted runs stay job-count invariant.
  netsim::LinkFaultPlan link_faults;
  /// Installed on every TSPU device: fail-open/fail-closed outage windows
  /// and mid-flow reboots, relative to each trial's epoch.
  netsim::DeviceFaultPlan device_faults;
  /// Conntrack capacity budget applied to every device. Default unbounded —
  /// byte-identical to the pre-budget deployment.
  core::TableBudget conn_budget;
  /// Fragment-engine capacity budget applied to every device.
  core::TableBudget frag_budget;
  /// Overload policy (fail-open/fail-closed + hysteresis band) applied to
  /// every device; consulted only when a bounded table rejects admission.
  core::OverloadPolicy overload;
  /// Background flood campaigns. Each world aims them at silent sinks so
  /// flood traffic crosses device tables without touching a measured host,
  /// and begin_trial() re-arms them with fresh spoof streams.
  std::vector<netsim::FloodCampaign> floods;
};

class World {
 public:
  // Devices, hosts and callbacks hold pointers into the world: not copyable
  // or movable.
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  netsim::Network& net() { return net_; }
  core::PolicyPtr policy() { return policy_; }

  /// Drains all in-flight events.
  void settle() { net_.sim().run_until_idle(); }

  /// Isolates the next work item. Drains whatever earlier items left in
  /// flight and advances the clock far past every device timeout, so their
  /// conntrack, blocking and fragment state lazily expires; reseeds the
  /// devices, link loss and link faults from `item_seed`; re-arms the flood
  /// drivers; resets the captures, flows and IP-ID/ISN counters of every
  /// host the world registered; and rewinds the per-worker DNS query IDs,
  /// fresh source ports and buffer pool. After this call an item's outcome
  /// depends only on (config, item_seed), which is what lets the shard
  /// runner replay any item on any shard.
  void begin_trial(std::uint64_t item_seed);

 protected:
  /// `seed` arms the flood drivers at construction (begin_trial re-arms
  /// them from each item seed).
  World(const DeploymentConfig& deployment, std::uint64_t seed);

  netsim::NodeId add_router(const std::string& name, util::Ipv4Addr addr);

  /// Adds a host that begin_trial() resets. The national scan endpoints are
  /// the one kind of host a world builds without it: each is touched by one
  /// item only, and sweeping tens of thousands of them per item would make
  /// the reset cost grow with the world.
  netsim::Host* add_host(const std::string& name, util::Ipv4Addr addr);

  /// Builds a TSPU device with the deployment's budgets, overload policy
  /// and fault plan, splices it into the left—right link and records it;
  /// begin_trial() reseeds devices in creation order.
  core::Device* add_device(std::string name, core::DeviceConfig cfg,
                           netsim::NodeId left, netsim::NodeId right);

  /// Starts a flood driver from `source`, armed off the construction seed.
  void add_flood_driver(netsim::Host& source,
                        std::vector<netsim::FloodCampaign> campaigns);

 private:
  DeploymentConfig deployment_;
  std::uint64_t seed_;
  netsim::Network net_;
  core::PolicyPtr policy_;
  std::vector<core::Device*> devices_;
  std::vector<std::unique_ptr<netsim::FloodDriver>> flood_drivers_;
  std::vector<netsim::Host*> trial_hosts_;
};

}  // namespace tspu::topo
