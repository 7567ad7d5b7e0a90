#include "topo/scenario.h"

#include <stdexcept>

#include "ispdpi/resolver.h"
#include "netsim/router.h"
#include "obs/obs.h"
#include "util/buffer_pool.h"

namespace tspu::topo {
namespace {

using netsim::NodeId;
using util::Ipv4Addr;
using util::Ipv4Prefix;

// Table-1 calibration. Paths in Rostelecom/OBIT cross two devices for the
// trigger types both can enforce, so per-device rates are the square roots
// of the observed end-to-end failure percentages; SNI-I is enforceable only
// by the symmetric device (it needs downstream visibility to inject
// RST/ACKs), so its rate is used as-is on the symmetric box.
core::FailureRates rostelecom_rates() {
  core::FailureRates r;
  r.sni_i = 0.00084;   // observed 0.084% (symmetric device only)
  r.sni_ii = 0.005;    // sqrt(0.0025%)
  r.sni_iv = 0.0027;   // observed 0.27% (symmetric device only: the
                       // upstream-only box can neither inject RST/ACKs nor
                       // see the role reversal that arms SNI-IV)
  r.quic = 0.014;      // sqrt(0.02%)
  r.ip_based = 0.0;    // observed 0.00%
  r.sni_iii = 0.002;
  return r;
}

core::FailureRates obit_rates() {
  core::FailureRates r;
  r.sni_i = 0.0014;    // observed 0.14%
  r.sni_ii = 0.007;    // sqrt(0.005%)
  r.sni_iv = 0.0004;   // observed 0.04% (symmetric device only)
  r.quic = 0.0;        // observed 0.00%
  r.ip_based = 0.014;  // sqrt(0.02%)
  r.sni_iii = 0.002;
  return r;
}

core::FailureRates ertelecom_rates() {
  core::FailureRates r;
  r.sni_i = 0.009;     // N/A in Table 1; single-device ballpark
  r.sni_ii = 0.0176;   // observed 1.76%
  r.sni_iv = 0.0219;   // observed 2.19%
  r.quic = 0.0093;     // observed 0.93%
  r.ip_based = 0.00045;
  r.sni_iii = 0.002;
  return r;
}

/// Stream tag for per-ISP flood-driver reseeds (begin_trial), disjoint from
/// the device eviction-stream tags in tspu/device.cc.
constexpr std::uint32_t kFloodStream = 0xf10du;

}  // namespace

netsim::NodeId Scenario::add_router(const std::string& name, Ipv4Addr addr) {
  return net_.add(std::make_unique<netsim::Router>(name, addr));
}

netsim::Host* Scenario::add_host(const std::string& name, Ipv4Addr addr) {
  auto host = std::make_unique<netsim::Host>(name, addr);
  netsim::Host* raw = host.get();
  net_.add(std::move(host));
  return raw;
}

Scenario::Scenario(ScenarioConfig config)
    : policy_(std::make_shared<core::Policy>()),
      corpus_(DomainCorpus::generate(config.corpus)) {
  corpus_.install_policy(*policy_);
  set_throttling_era(config.throttling_era);
  const core::FailureRates no_failures{};

  // ------------------------------------------------------------ abroad
  const NodeId core_r = add_router("core", Ipv4Addr(198, 19, 0, 1));
  const NodeId us_r = add_router("us-router", Ipv4Addr(198, 41, 0, 1));
  const NodeId paris_r = add_router("paris-router", Ipv4Addr(163, 172, 0, 1));

  us_mm_.push_back(add_host("us-mm-1", Ipv4Addr(198, 41, 0, 10)));
  us_mm_.push_back(add_host("us-mm-2", Ipv4Addr(198, 41, 0, 11)));
  us_raw_ = add_host("us-raw", Ipv4Addr(198, 41, 0, 12));
  us_mm_.push_back(us_raw_);
  paris_mm_ = add_host("paris-mm", Ipv4Addr(163, 172, 0, 10));
  tor_node_ = add_host("tor-entry", Ipv4Addr(163, 172, 0, 11));

  net_.link(core_r, us_r);
  net_.link(core_r, paris_r);
  for (netsim::Host* h : us_mm_) {
    net_.link(us_r, h->id());
    net_.routes(us_r).add(Ipv4Prefix(h->addr(), 32), h->id());
    net_.routes(h->id()).set_default(us_r);
  }
  for (netsim::Host* h : {paris_mm_, tor_node_}) {
    net_.link(paris_r, h->id());
    net_.routes(paris_r).add(Ipv4Prefix(h->addr(), 32), h->id());
    net_.routes(h->id()).set_default(paris_r);
  }
  net_.routes(us_r).set_default(core_r);
  net_.routes(paris_r).set_default(core_r);

  // ------------------------------------------------------------ Russia
  const NodeId ru_core = add_router("ru-core", Ipv4Addr(80, 64, 0, 1));
  const NodeId transit_rt =
      add_router("transit-rostelecom", Ipv4Addr(188, 128, 0, 1));
  const NodeId transit_rc = add_router("transit-rascom", Ipv4Addr(81, 27, 0, 1));
  net_.link(core_r, ru_core);
  net_.link(ru_core, transit_rt);
  net_.link(ru_core, transit_rc);
  net_.routes(ru_core).set_default(core_r);
  net_.routes(transit_rt).set_default(ru_core);
  net_.routes(transit_rc).set_default(ru_core);
  net_.routes(core_r).add(Ipv4Prefix(Ipv4Addr(198, 41, 0, 0), 16), us_r);
  net_.routes(core_r).add(Ipv4Prefix(Ipv4Addr(163, 172, 0, 0), 16), paris_r);
  net_.routes(core_r).add(Ipv4Prefix(Ipv4Addr(5, 0, 0, 0), 8), ru_core);

  // State-table budgets and the overload policy are deployment-wide (§8's
  // "provisioned with enough computation and memory resources" knob): every
  // device gets the same caps. Defaults are unbounded, i.e. a no-op.
  auto apply_budgets = [&config](core::DeviceConfig& cfg) {
    cfg.conn_budget = config.conn_budget;
    cfg.frag_budget = config.frag_budget;
    cfg.overload = config.overload;
  };

  // Helper assembling one residential ISP and returning its VantagePoint.
  struct IspBuild {
    VantagePoint vp;
    NodeId access;
  };
  // Where each ISP's flood source attaches (access router + /16 base),
  // recorded as the ISPs are built.
  struct FloodSite {
    NodeId access;
    std::uint32_t base;
  };
  std::vector<FloodSite> flood_sites;
  auto build_isp = [&](const std::string& isp, Ipv4Addr net_base,
                       NodeId border_up, NodeId border_down) {
    const std::uint32_t base = net_base.value();
    const NodeId access = add_router(isp + "-access", Ipv4Addr(base + 1));
    netsim::Host* vp_host = add_host(isp + "-vp", Ipv4Addr(base + 100));
    netsim::Host* resolver = add_host(isp + "-resolver", Ipv4Addr(base + 53));
    netsim::Host* blockpage = add_host(isp + "-blockpage", Ipv4Addr(base + 80));

    net_.link(border_up, access);
    if (border_down != border_up) net_.link(border_down, access);
    for (netsim::Host* h : {vp_host, resolver, blockpage}) {
      net_.link(access, h->id());
      net_.routes(access).add(Ipv4Prefix(h->addr(), 32), h->id());
      net_.routes(h->id()).set_default(access);
    }
    net_.routes(access).set_default(border_up);
    net_.routes(border_up).add(Ipv4Prefix(net_base, 16), access);
    net_.routes(border_down).add(Ipv4Prefix(net_base, 16), access);

    // Blockpage server answers HTTP-ish on port 80.
    netsim::TcpServerOptions page;
    page.on_data = [isp](std::span<const std::uint8_t>) {
      return util::to_bytes("HTTP/1.1 200 OK\r\n\r\n<blocked by " + isp + ">");
    };
    blockpage->listen(80, page);

    IspBuild out;
    out.vp.isp = isp;
    out.vp.host = vp_host;
    out.vp.resolver = resolver->addr();
    out.vp.blockpage = blockpage->addr();
    out.access = access;
    flood_sites.push_back({access, base});
    return out;
  };

  util::Rng rng(config.seed);
  std::uint64_t device_seed = rng.next();

  // --- Rostelecom (AS12389): symmetric device near the access router, an
  // upstream-only device one hop behind (asymmetric return via border-b).
  {
    const NodeId agg = add_router("rostelecom-agg", Ipv4Addr(5, 16, 0, 2));
    const NodeId border_a = add_router("rostelecom-border-a", Ipv4Addr(5, 16, 0, 3));
    const NodeId border_b = add_router("rostelecom-border-b", Ipv4Addr(5, 16, 0, 4));
    net_.link(ru_core, border_a);
    net_.link(ru_core, border_b);
    net_.link(border_a, agg);
    net_.link(border_b, agg);
    net_.routes(border_a).set_default(ru_core);
    net_.routes(border_b).set_default(ru_core);
    net_.routes(agg).set_default(border_a);  // upstream exits via border-a
    net_.routes(ru_core).add(Ipv4Prefix(Ipv4Addr(5, 16, 0, 0), 16),
                             border_b);      // downstream returns via border-b
    net_.routes(border_a).add(Ipv4Prefix(Ipv4Addr(5, 16, 0, 0), 16), agg);
    net_.routes(border_b).add(Ipv4Prefix(Ipv4Addr(5, 16, 0, 0), 16), agg);

    IspBuild isp = build_isp("Rostelecom", Ipv4Addr(5, 16, 0, 0), agg, agg);

    core::DeviceConfig sym_cfg;
    sym_cfg.capabilities = config.capabilities;
    sym_cfg.failures = config.perfect_devices ? no_failures : rostelecom_rates();
    apply_budgets(sym_cfg);
    sym_cfg.seed = device_seed++;
    auto sym = std::make_unique<core::Device>("tspu-rt-sym", policy_, sym_cfg);
    core::Device* sym_raw = sym.get();
    net_.insert_inline(isp.access, agg, std::move(sym));

    core::DeviceConfig up_cfg = sym_cfg;
    up_cfg.seed = device_seed++;
    auto up = std::make_unique<core::Device>("tspu-rt-uponly", policy_, up_cfg);
    core::Device* up_raw = up.get();
    net_.insert_inline(agg, border_a, std::move(up));

    isp.vp.devices = {sym_raw, up_raw};
    isp.vp.symmetric_devices = 1;
    vps_.push_back(isp.vp);
  }

  // --- ER-Telecom (AS50544): one symmetric device.
  {
    const NodeId border = add_router("ertelecom-border", Ipv4Addr(5, 12, 0, 2));
    net_.link(ru_core, border);
    net_.routes(border).set_default(ru_core);
    net_.routes(ru_core).add(Ipv4Prefix(Ipv4Addr(5, 12, 0, 0), 16), border);

    IspBuild isp = build_isp("ER-Telecom", Ipv4Addr(5, 12, 0, 0), border, border);

    core::DeviceConfig cfg;
    cfg.capabilities = config.capabilities;
    cfg.failures = config.perfect_devices ? no_failures : ertelecom_rates();
    apply_budgets(cfg);
    cfg.seed = device_seed++;
    auto dev = std::make_unique<core::Device>("tspu-ert-sym", policy_, cfg);
    core::Device* raw = dev.get();
    net_.insert_inline(isp.access, border, std::move(dev));

    isp.vp.devices = {raw};
    isp.vp.symmetric_devices = 1;
    vps_.push_back(isp.vp);
  }

  // --- OBIT (AS8492): symmetric device near access; upstream exits through
  // a transit chosen by destination (Rostelecom-transit for the US, RasCom
  // for Paris), each transit ingress hosting an upstream-only device; the
  // return path enters via a separate router and sees neither.
  {
    const NodeId obit_core = add_router("obit-core", Ipv4Addr(5, 8, 0, 2));
    const NodeId obit_return = add_router("obit-return", Ipv4Addr(5, 8, 0, 3));
    net_.link(ru_core, obit_return);
    net_.link(obit_return, obit_core);
    net_.link(obit_core, transit_rt);
    net_.link(obit_core, transit_rc);
    net_.routes(obit_return).set_default(ru_core);
    net_.routes(obit_return).add(Ipv4Prefix(Ipv4Addr(5, 8, 0, 0), 16), obit_core);
    net_.routes(ru_core).add(Ipv4Prefix(Ipv4Addr(5, 8, 0, 0), 16), obit_return);
    // Destination-dependent upstream transit (asymmetric routing, §7.1.1).
    net_.routes(obit_core).add(Ipv4Prefix(Ipv4Addr(163, 172, 0, 0), 16),
                               transit_rc);
    net_.routes(obit_core).set_default(transit_rt);

    IspBuild isp = build_isp("OBIT", Ipv4Addr(5, 8, 0, 0), obit_core, obit_core);

    core::DeviceConfig sym_cfg;
    sym_cfg.capabilities = config.capabilities;
    sym_cfg.failures = config.perfect_devices ? no_failures : obit_rates();
    apply_budgets(sym_cfg);
    sym_cfg.seed = device_seed++;
    auto sym = std::make_unique<core::Device>("tspu-obit-sym", policy_, sym_cfg);
    core::Device* sym_raw = sym.get();
    net_.insert_inline(isp.access, obit_core, std::move(sym));

    core::DeviceConfig up_cfg = sym_cfg;
    up_cfg.seed = device_seed++;
    auto up_rt = std::make_unique<core::Device>("tspu-transit-rt", policy_, up_cfg);
    core::Device* up_rt_raw = up_rt.get();
    net_.insert_inline(obit_core, transit_rt, std::move(up_rt));

    core::DeviceConfig up2_cfg = sym_cfg;
    up2_cfg.seed = device_seed++;
    auto up_rc = std::make_unique<core::Device>("tspu-transit-rc", policy_, up2_cfg);
    core::Device* up_rc_raw = up_rc.get();
    net_.insert_inline(obit_core, transit_rc, std::move(up_rc));

    isp.vp.devices = {sym_raw, up_rt_raw, up_rc_raw};
    isp.vp.symmetric_devices = 1;
    vps_.push_back(isp.vp);
  }

  // ------------------------------------------------- policy: blocked IPs
  // The Tor entry node ("out-registry" blocked since Dec 2021) plus six
  // additional IPs (VPN providers, Google services) — §5.2.
  policy_->block_ip(tor_node_->addr());
  for (int i = 0; i < 6; ++i) {
    Ipv4Addr extra(Ipv4Addr(93, 184, 200, 10).value() + i);
    policy_->block_ip(extra);
    extra_blocked_ips_.push_back(extra);
  }

  // ------------------------------------------------- servers & resolvers
  for (netsim::Host* mm : us_mm_) {
    if (mm == us_raw_) continue;  // the raw machine never answers on its own
    mm->listen(443, netsim::tls_server_options());
    mm->listen(7, netsim::echo_server_options());
    mm->listen(80, netsim::echo_server_options());
    // QUIC-ish responder: any UDP/443 datagram gets a short reply.
    mm->udp_listen(443, [](netsim::Host& self, Ipv4Addr src,
                           const wire::UdpDatagram& d) {
      self.send_udp(src, 443, d.hdr.src_port, util::to_bytes("quic-reply"));
    });
  }
  // us-mm-2 answers a SYN with a bare SYN (split handshake) — the machine
  // configuration used to exercise SNI-IV (§6.2).
  {
    netsim::TcpServerOptions split = netsim::tls_server_options();
    split.split_handshake = true;
    us_mm_[1]->listen(443, split);
  }
  paris_mm_->listen(443, netsim::tls_server_options());
  paris_mm_->listen(7, netsim::echo_server_options());

  // Machines and vantage points are ours: their kernels are configured not
  // to interfere with crafted flows (no RST on unexpected segments).
  for (netsim::Host* mm : us_mm_) mm->rst_on_closed_port = false;
  paris_mm_->rst_on_closed_port = false;
  tor_node_->rst_on_closed_port = false;
  for (VantagePoint& v : vps_) v.host->rst_on_closed_port = false;

  // Per-ISP lagging blocklists (§6.3): Rostelecom synced only through
  // mid-January (1,302 of the 10k recent additions), OBIT through
  // mid-February (3,943), ER-Telecom nearly current.
  const ispdpi::IspBlocklist::Spec specs[3] = {
      {0.97, 15},   // Rostelecom: ~13% of the 0..115-day sample
      {0.98, 113},  // ER-Telecom: nearly everything
      {0.96, 47},   // OBIT: ~40% of the sample
  };
  auto registry = corpus_.registry_entries();
  for (std::size_t i = 0; i < vps_.size(); ++i) {
    auto bl = std::make_shared<ispdpi::IspBlocklist>(
        ispdpi::IspBlocklist::sample(registry, specs[i], rng));
    blocklists_.push_back(bl);
    netsim::Host* resolver = static_cast<netsim::Host*>(
        &net_.node(net_.find_by_addr(vps_[i].resolver)));
    ispdpi::ResolverConfig rc;
    rc.blocklist = bl;
    rc.blockpage_ip = vps_[i].blockpage;
    rc.zone = [this](const std::string& name) { return corpus_.resolve(name); };
    ispdpi::attach_blockpage_resolver(*resolver, std::move(rc));
  }

  // ------------------------------------------------- injected faults
  if (config.link_faults.any()) {
    net_.set_default_link_faults(config.link_faults);
  }
  if (config.device_faults.any()) {
    for (VantagePoint& v : vps_) {
      for (core::Device* d : v.devices) d->set_fault_plan(config.device_faults);
    }
  }

  // ------------------------------------------------- flood campaigns
  if (!config.floods.empty()) {
    // Silent sink abroad: flood SYNs/ACKs terminate here without replies
    // (no services, no RST-on-closed-port), so the only traffic a campaign
    // adds is the spoofed upstream packets crossing each ISP's devices.
    netsim::Host* sink = add_host("flood-sink", Ipv4Addr(198, 41, 0, 200));
    net_.link(us_r, sink->id());
    net_.routes(us_r).add(Ipv4Prefix(sink->addr(), 32), sink->id());
    net_.routes(sink->id()).set_default(us_r);
    sink->rst_on_closed_port = false;
    sink->set_capture_limit(0);

    for (std::size_t i = 0; i < flood_sites.size(); ++i) {
      const FloodSite& site = flood_sites[i];
      netsim::Host* src =
          add_host(vps_[i].isp + "-flood", Ipv4Addr(site.base + 200));
      net_.link(site.access, src->id());
      net_.routes(site.access).add(Ipv4Prefix(src->addr(), 32), src->id());
      net_.routes(src->id()).set_default(site.access);
      src->rst_on_closed_port = false;
      src->set_capture_limit(0);

      std::vector<netsim::FloodCampaign> campaigns = config.floods;
      for (netsim::FloodCampaign& c : campaigns) {
        if (c.targets.empty()) c.targets.push_back(sink->addr());
        // Spoof from the unused upper half of the ISP's /16: in-subnet
        // sources look local to the devices, and nothing ever answers to
        // those addresses.
        if (c.spoof_base.value() == 0) c.spoof_base = Ipv4Addr(site.base + 0x8000);
      }
      flood_drivers_.push_back(
          std::make_unique<netsim::FloodDriver>(*src, std::move(campaigns)));
      // Construction-time arm off the config seed; begin_trial() re-arms
      // off each item seed.
      flood_drivers_.back()->arm(netsim::fault_stream_seed(
          config.seed, kFloodStream, static_cast<std::uint32_t>(i)));
    }
  }
}

VantagePoint& Scenario::vp(const std::string& isp_name) {
  for (VantagePoint& v : vps_) {
    if (v.isp == isp_name) return v;
  }
  throw std::invalid_argument("no vantage point in ISP " + isp_name);
}

void Scenario::reseed_stochastic(std::uint64_t seed) {
  util::Rng root(seed);
  for (VantagePoint& v : vps_) {
    for (core::Device* d : v.devices) d->reseed(root.next());
  }
  net_.seed_loss_rng(root.next());
  // Rotates every per-link fault stream and re-anchors the flap/reboot epoch
  // at the current instant; drawn last so the device/loss streams above keep
  // their historical seeds.
  net_.reseed_fault_rngs(root.next());
}

void Scenario::begin_trial(std::uint64_t item_seed) {
  // Mute the quiesce (its event count depends on the shard's item history)
  // and re-anchor trace timestamps at the trial start — see
  // NationalTopology::begin_trial.
  obs::MuteGuard mute;
  net_.sim().run_until_idle();
  net_.sim().run_for(util::Duration::seconds(1000));
  reseed_stochastic(item_seed);
  // Restart the flood campaigns with trial-local spoof streams; leftovers
  // from the previous item already ran dry during the quiesce above.
  for (std::size_t i = 0; i < flood_drivers_.size(); ++i) {
    flood_drivers_[i]->arm(netsim::fault_stream_seed(
        item_seed, kFloodStream, static_cast<std::uint32_t>(i)));
  }
  std::vector<netsim::Host*> hosts;
  for (VantagePoint& v : vps_) hosts.push_back(v.host);
  hosts.insert(hosts.end(), us_mm_.begin(), us_mm_.end());
  hosts.push_back(us_raw_);
  hosts.push_back(paris_mm_);
  hosts.push_back(tor_node_);
  for (netsim::Host* h : hosts) {
    h->reset_traffic_state();
    h->reset_protocol_counters();
  }
  // DNS transaction IDs are per-worker state; re-anchor them so the IDs a
  // trial sees do not encode how many queries earlier items sent.
  ispdpi::reset_dns_query_ids();
  // Payload-buffer free lists are per-worker state too: purge them so a
  // trial's allocator footprint never depends on what ran before it.
  util::reset_buffer_pool();
  obs::anchor_epoch(net_.now());
}

void Scenario::set_throttling_era(bool on) {
  // §5.2 SNI-III: hard throttling of twitter.com / fbcdn.net between Feb 26
  // and March 4, 2022, replaced by RST/ACK (SNI-I) afterwards. twitter.com
  // keeps its SNI-IV backup flag in both eras.
  core::SniPolicy twitter;
  twitter.throttle = on;
  twitter.rst_ack = !on;
  twitter.backup_drop = true;
  policy_->add_sni("twitter.com", twitter);

  core::SniPolicy fbcdn;
  fbcdn.throttle = on;
  fbcdn.rst_ack = !on;
  policy_->add_sni("fbcdn.net", fbcdn);
}

}  // namespace tspu::topo
