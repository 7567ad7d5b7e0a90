#include "topo/world.h"

#include "ispdpi/resolver.h"
#include "netsim/router.h"
#include "obs/obs.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace tspu::topo {
namespace {

/// Stream tag for flood-driver arming, disjoint from the device
/// eviction-stream tags in tspu/device.cc.
constexpr std::uint32_t kFloodStream = 0xf10du;

}  // namespace

World::World(const DeploymentConfig& deployment, std::uint64_t seed)
    : deployment_(deployment),
      seed_(seed),
      policy_(std::make_shared<core::Policy>()) {
  if (deployment_.link_faults.any()) {
    net_.set_default_link_faults(deployment_.link_faults);
  }
}

netsim::NodeId World::add_router(const std::string& name,
                                 util::Ipv4Addr addr) {
  return net_.add(std::make_unique<netsim::Router>(name, addr));
}

netsim::Host* World::add_host(const std::string& name, util::Ipv4Addr addr) {
  auto host = std::make_unique<netsim::Host>(name, addr);
  netsim::Host* raw = host.get();
  net_.add(std::move(host));
  trial_hosts_.push_back(raw);
  return raw;
}

core::Device* World::add_device(std::string name, core::DeviceConfig cfg,
                                netsim::NodeId left, netsim::NodeId right) {
  cfg.conn_budget = deployment_.conn_budget;
  cfg.frag_budget = deployment_.frag_budget;
  cfg.overload = deployment_.overload;
  cfg.faults = deployment_.device_faults;
  auto dev = std::make_unique<core::Device>(std::move(name), policy_, cfg);
  core::Device* raw = dev.get();
  net_.insert_inline(left, right, std::move(dev));
  devices_.push_back(raw);
  return raw;
}

void World::add_flood_driver(netsim::Host& source,
                             std::vector<netsim::FloodCampaign> campaigns) {
  const auto index = static_cast<std::uint32_t>(flood_drivers_.size());
  flood_drivers_.push_back(
      std::make_unique<netsim::FloodDriver>(source, std::move(campaigns)));
  flood_drivers_.back()->arm(
      netsim::fault_stream_seed(seed_, kFloodStream, index));
}

void World::begin_trial(std::uint64_t item_seed) {
  // Drain whatever the previous item left in flight, then jump the clock far
  // past the longest TSPU timeout (480 s established conntrack), so every
  // conntrack entry, blocking verdict, and fragment queue from earlier items
  // is expired by the time this item's packets arrive. How much the quiesce
  // processes depends on which items shared this replica, so none of it may
  // reach the flight recorder, or per-item counters would differ across job
  // counts.
  obs::MuteGuard mute;
  net_.sim().run_until_idle();
  net_.sim().run_for(util::Duration::seconds(1000));
  // One root seed forked per consumer: devices in creation order, then link
  // loss, then the per-link fault streams (drawn last, so the device and
  // loss streams keep their historical seeds). Rotating the fault root also
  // re-anchors the flap/reboot epoch at the current instant.
  util::Rng root(item_seed);
  for (core::Device* d : devices_) d->reseed(root.next());
  net_.seed_loss_rng(root.next());
  net_.reseed_fault_rngs(root.next());
  // Restart the flood campaigns with trial-local spoof streams; leftovers
  // from the previous item already ran dry during the quiesce above.
  for (std::size_t i = 0; i < flood_drivers_.size(); ++i) {
    flood_drivers_[i]->arm(netsim::fault_stream_seed(
        item_seed, kFloodStream, static_cast<std::uint32_t>(i)));
  }
  for (netsim::Host* h : trial_hosts_) {
    h->reset_traffic_state();
    h->reset_protocol_counters();
  }
  // Per-worker counters and caches: DNS transaction IDs, source ports and
  // payload-buffer free lists would otherwise encode how much earlier items
  // on this thread used them.
  ispdpi::reset_dns_query_ids();
  netsim::reset_fresh_port();
  util::reset_buffer_pool();
  // Re-anchor trace timestamps at the trial start: shard clocks accumulate
  // across the items a shard has run, so absolute times are job-count
  // dependent while trial-relative times are not.
  obs::anchor_epoch(net_.now());
}

}  // namespace tspu::topo
