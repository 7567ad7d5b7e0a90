// Ablation (§8 discussion): the TSPU's short conntrack timeouts look like a
// resource trade-off — "several low-cost, commodity hardware boxes ... at
// the expense of being less able to pool resources". This bench measures
// the device's conntrack table size under a connection churn workload with
// the TSPU's measured timeouts vs Linux-like timeouts, and the price of the
// short timeouts: the wait-out-SYN-SENT evasion. Its state-exhaustion sweep
// writes BENCH_ablation_conntrack_memory.json: per sweep row, the raw and
// retried verdicts for both SNIs and the rejected-packet count.
#include <optional>

#include "bench_common.h"
#include "circumvent/strategies.h"
#include "measure/retry.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "topo/scenario.h"
#include "tspu/device.h"
#include "util/table.h"

using namespace tspu;
using util::Duration;
using util::Ipv4Addr;
using util::Ipv4Prefix;

namespace {

/// Builds client—[device]—server and replays `flows` short connections at
/// `rate_per_sec`, reporting the device's live conntrack entry count.
std::size_t table_size_after_churn(core::ConntrackTimeouts timeouts,
                                   int flows, int rate_per_sec) {
  netsim::Network net;
  auto policy = std::make_shared<core::Policy>();
  auto c = std::make_unique<netsim::Host>("c", Ipv4Addr(5, 9, 0, 2));
  auto* client = c.get();
  client->set_capture_limit(0);
  auto s = std::make_unique<netsim::Host>("s", Ipv4Addr(93, 9, 0, 2));
  auto* server = s.get();
  server->set_capture_limit(0);
  server->listen(80, netsim::TcpServerOptions{});
  const auto cid = net.add(std::move(c));
  const auto r1 = net.add(std::make_unique<netsim::Router>("r1", Ipv4Addr(5, 9, 0, 1)));
  const auto r2 = net.add(std::make_unique<netsim::Router>("r2", Ipv4Addr(93, 9, 0, 1)));
  const auto sid = net.add(std::move(s));
  net.link(cid, r1);
  net.link(r1, r2);
  net.link(r2, sid);
  net.routes(cid).set_default(r1);
  net.routes(sid).set_default(r2);
  net.routes(r1).set_default(r2);
  net.routes(r1).add(Ipv4Prefix(client->addr(), 32), cid);
  net.routes(r2).set_default(r1);
  net.routes(r2).add(Ipv4Prefix(server->addr(), 32), sid);

  core::DeviceConfig cfg;
  cfg.conn_timeouts = timeouts;
  auto dev = std::make_unique<core::Device>("dut", policy, cfg);
  auto* device = dev.get();
  net.insert_inline(r1, r2, std::move(dev));

  std::uint16_t port = 10000;
  for (int i = 0; i < flows; ++i) {
    client->connect(server->addr(), 80,
                    netsim::TcpClientOptions{.src_port = ++port});
    net.sim().run_for(Duration::micros(1'000'000 * 1000 / rate_per_sec));
    if (i % 256 == 0) client->reset_traffic_state();
  }
  net.sim().run_until_idle();
  return device->conntrack().live_entries(net.now());
}

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("ablation_conntrack_memory");
  bench::banner("Ablation", "Conntrack memory: TSPU timeouts vs Linux-like");

  const int flows = bench::env_int("TSPU_BENCH_CHURN_FLOWS", 3000);
  const int rate = 1000;  // one new idle connection per second (milli-rate)

  core::ConntrackTimeouts tspu;  // the measured values (Table 2)
  core::ConntrackTimeouts linuxish;
  linuxish.local_syn_sent = Duration::seconds(120);
  linuxish.syn_received = Duration::seconds(60);
  linuxish.established = Duration::seconds(432000);
  linuxish.local_other = Duration::seconds(432000);
  linuxish.remote_syn_sent = Duration::seconds(120);
  linuxish.remote_other = Duration::seconds(432000);
  linuxish.role_reversed = Duration::seconds(432000);

  util::Table table({"conntrack profile", "flows replayed",
                     "entries resident after churn"});
  const auto tspu_size = table_size_after_churn(tspu, flows, rate);
  const auto linux_size = table_size_after_churn(linuxish, flows, rate);
  table.row({"TSPU (480 s established)", std::to_string(flows),
             std::to_string(tspu_size)});
  table.row({"Linux-like (432000 s established)", std::to_string(flows),
             std::to_string(linux_size)});
  std::printf("%s\n", table.render().c_str());
  std::printf("memory ratio linux-like / tspu: %.1fx\n",
              tspu_size ? double(linux_size) / tspu_size : 0.0);

  // The price of eager eviction: the server-side wait-out strategy.
  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = 0.02;
  topo::Scenario scenario(cfg);
  const bool evades = circumvent::tls_exchange_succeeds(
      scenario, scenario.vp("ER-Telecom"),
      circumvent::Strategy::kServerWaitTimeout, "facebook.com");
  std::printf("wait-out-SYN-SENT evasion with the short timeouts: %s\n",
              evades ? "EVADES (the trade-off's cost)" : "blocked");
  bench::note("short timeouts keep the table small on commodity hardware "
              "but open the eviction-timing evasion; Linux-scale timeouts "
              "would close it at a large memory multiple.");

  // ------------------------------------------------------------------------
  // State-exhaustion sweep: RejectNew conntrack budgets under a SYN flood.
  // A probe flow that starts while the table is saturated is never admitted:
  // fail-open forwards it uninspected (the blocked SNI false-allows),
  // fail-closed eats it (the clean SNI false-blocks). A single raw probe
  // misreports either way; the retry layer with contradiction_inconclusive
  // spaces attempts across the 60 s SYN-entry expiry and degrades the
  // contradiction to Inconclusive instead of confirming the forged answer.
  std::printf("\n-- state exhaustion: RejectNew budgets under SYN flood --\n");
  measure::RetryPolicy retry;
  retry.backoff = Duration::seconds(20);  // spans the 60 s SYN-SENT expiry
  retry.contradiction_inconclusive = true;

  util::Table ex({"overload mode", "conn budget", "flood pkts/s",
                  "blocked SNI raw", "blocked SNI retried", "clean SNI raw",
                  "clean SNI retried", "rejected pkts"});
  for (netsim::DeviceFailMode mode :
       {netsim::DeviceFailMode::kFailOpen, netsim::DeviceFailMode::kFailClosed}) {
    for (std::size_t budget : {std::size_t{512}, std::size_t{64}}) {
      for (int burst : {0, 32, 128}) {
        topo::ScenarioConfig sc;
        sc.perfect_devices = true;
        sc.corpus.scale = 0.02;
        sc.conn_budget.max_entries = budget;
        sc.conn_budget.policy = core::EvictionPolicy::kRejectNew;
        sc.overload.mode = mode;
        sc.overload.enter_fraction = 1.0;
        sc.overload.exit_fraction = 0.9;
        if (burst > 0) {
          netsim::FloodCampaign syn;
          syn.kind = netsim::FloodKind::kSynFlood;
          syn.duration = Duration::seconds(2);
          syn.packets_per_burst = burst;
          syn.burst_interval = Duration::millis(50);
          sc.floods.push_back(syn);
        }
        topo::Scenario sim(sc);
        topo::VantagePoint& vp = sim.vp("ER-Telecom");
        sim.begin_trial(0x5eedull + budget * 131 + static_cast<unsigned>(burst));
        // Let the flood fill the table before the first probe: admission
        // control only affects flows that START at saturation.
        sim.net().sim().run_for(Duration::seconds(1));

        auto exchange_ok = [&](const char* sni) {
          return circumvent::tls_exchange_succeeds(
              sim, vp, circumvent::Strategy::kBaseline, sni);
        };
        const bool raw_blocked_ok = exchange_ok("facebook.com");
        const bool raw_clean_ok = exchange_ok("example.com");
        auto retried = [&](const char* sni) {
          // Observation: "this SNI looks censored".
          return measure::run_with_retry(sim.net(), retry, [&] {
            return std::optional<bool>(!exchange_ok(sni));
          });
        };
        const measure::ProbeVerdict vb = retried("facebook.com");
        const measure::ProbeVerdict vc = retried("example.com");
        auto verdict_cell = [](const measure::ProbeVerdict& v) {
          if (v.verdict != measure::Verdict::kConfirmed)
            return measure::verdict_name(v.verdict);
          return std::string(v.observation ? "confirmed blocked"
                                           : "confirmed clean");
        };
        // Headline code of a retried verdict: 0 confirmed clean, 1 confirmed
        // blocked, 2 inconclusive, 3 unreachable.
        auto verdict_code = [](const measure::ProbeVerdict& v) {
          return v.verdict == measure::Verdict::kConfirmed
                     ? static_cast<int>(v.observation)
                     : 1 + static_cast<int>(v.verdict);
        };

        const core::DeviceStats& ds = vp.devices[0]->stats();
        const bool fail_open = mode == netsim::DeviceFailMode::kFailOpen;
        const std::uint64_t rejected =
            ds.overload_forwarded + ds.overload_dropped;
        ex.row({fail_open ? "fail-open" : "fail-closed",
                std::to_string(budget),
                std::to_string(burst * 20),  // bursts every 50 ms
                raw_blocked_ok ? "allowed (FALSE-ALLOW)" : "blocked",
                verdict_cell(vb),
                raw_clean_ok ? "allowed" : "blocked (FALSE-BLOCK)",
                verdict_cell(vc),
                std::to_string(rejected)});
        const std::string row =
            std::string(fail_open ? "fail_open." : "fail_closed.") +
            std::to_string(budget) + "." + std::to_string(burst * 20) + ".";
        report.metric(row + "blocked_raw_allowed",
                      static_cast<int>(raw_blocked_ok));
        report.metric(row + "blocked_retried", verdict_code(vb));
        report.metric(row + "clean_raw_allowed",
                      static_cast<int>(raw_clean_ok));
        report.metric(row + "clean_retried", verdict_code(vc));
        report.metric(row + "rejected_pkts",
                      static_cast<std::size_t>(rejected));
      }
    }
  }
  std::printf("%s\n", ex.render().c_str());
  bench::note("a saturated RejectNew table forges one side of the answer; "
              "raw single probes confirm the forgery, retries spaced past "
              "the entry expiry degrade it to Inconclusive.");
  report.write();
  return 0;
}
