// Table 5: correlating the TSPU's IP-based blocking (SYNs from the blocked
// Tor-node address) with (a) the echo technique and (b) the fragmentation
// fingerprint, including Hamming distances. Both panels run sharded over
// one flat item list; every cell is identical for any TSPU_BENCH_JOBS.
#include <memory>

#include "bench_common.h"
#include "measure/behavior.h"
#include "measure/common.h"
#include "measure/echo.h"
#include "measure/frag_probe.h"
#include "measure/target_filter.h"
#include "runner/runner.h"
#include "topo/national.h"
#include "util/table.h"

using namespace tspu;

namespace {

void print_contingency(const char* title, int nn, int nb, int bn, int bb,
                       const char* paper) {
  const int total = nn + nb + bn + bb;
  const double hamming = total == 0 ? 0.0 : double(nb + bn) / total;
  util::Table t({"", title, "", ""});
  t.row({"", "other (N)", "other (B)", "Hamming"});
  t.row({"IP (N)", std::to_string(nn), std::to_string(nb),
         std::to_string(hamming).substr(0, 6)});
  t.row({"IP (B)", std::to_string(bn), std::to_string(bb), ""});
  std::printf("%s\npaper: %s\n\n", t.render().c_str(), paper);
}

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("table5_correlation", 0.003);
  bench::banner("Table 5", "IP-blocking vs echo / fragmentation correlation");

  topo::NationalConfig cfg;
  cfg.endpoint_scale = report.scale();
  cfg.n_ases = bench::env_int("TSPU_BENCH_ASES", 400);
  cfg.echo_servers = 1100;
  constexpr std::uint64_t kSeed = 0x7ab1e5;

  auto scout = std::make_unique<topo::NationalTopology>(cfg);

  // Panel 1 items: filtered echo servers. Panel 2 items: port-7547 filtered
  // endpoints, capped.
  const int max_targets = bench::env_int("TSPU_BENCH_FRAG_TARGETS", 1200);
  std::vector<std::size_t> echo_items, frag_items;
  for (std::size_t i = 0; i < scout->endpoints().size(); ++i) {
    const auto& ep = scout->endpoints()[i];
    if (!measure::is_non_residential_label(ep.device_label)) continue;
    if (ep.echo_server) echo_items.push_back(i);
    if (ep.port == 7547 &&
        frag_items.size() < static_cast<std::size_t>(std::max(max_targets, 0)))
      frag_items.push_back(i);
  }
  const std::size_t n_echo = echo_items.size();

  struct Verdict {
    bool ip = false;
    bool other = false;  ///< echo (panel 1) or fragment (panel 2) positive
  };
  const std::vector<Verdict> verdicts = runner::shard_map(
      n_echo + frag_items.size(), report.jobs(),
      [&scout, &cfg](int shard) {
        return shard == 0 && scout
                   ? std::move(scout)
                   : std::make_unique<topo::NationalTopology>(cfg);
      },
      [&](std::unique_ptr<topo::NationalTopology>& topo, std::size_t i) {
        topo->begin_trial(runner::item_seed(kSeed, i));
        measure::reset_fresh_port();
        const bool echo_panel = i < n_echo;
        const auto& ep = topo->endpoints()[echo_panel
                                               ? echo_items[i]
                                               : frag_items[i - n_echo]];
        Verdict v;
        v.other =
            echo_panel
                ? measure::quack_echo_test(topo->net(), topo->prober(), ep.addr)
                      .tspu_positive
                : measure::probe_fragment_limit(topo->net(), topo->prober(),
                                                ep.addr, ep.port)
                      .tspu_like();
        v.ip = measure::test_ip_blocking(topo->net(), topo->tor_node(), ep.addr,
                                         echo_panel ? 7 : ep.port) ==
               measure::IpBlockOutcome::kRstAckRewrite;
        return v;
      });

  int e_nn = 0, e_nb = 0, e_bn = 0, e_bb = 0;
  int f_nn = 0, f_nb = 0, f_bn = 0, f_bb = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const Verdict& v = verdicts[i];
    int& cell = i < n_echo ? (v.ip ? (v.other ? e_bb : e_bn)
                                   : (v.other ? e_nb : e_nn))
                           : (v.ip ? (v.other ? f_bb : f_bn)
                                   : (v.other ? f_nb : f_nn));
    ++cell;
  }

  print_contingency("Echo", e_nn, e_nb, e_bn, e_bb,
                    "IP(N)/Echo(N)=673  IP(N)/Echo(B)=12  IP(B)/Echo(N)=44 "
                    " IP(B)/Echo(B)=405, Hamming 0.0493");
  print_contingency("Fragment", f_nn, f_nb, f_bn, f_bb,
                    "IP(N)/Frag(N)=828  IP(N)/Frag(B)=85  IP(B)/Frag(N)=151 "
                    " IP(B)/Frag(B)=7567, Hamming 0.0199");
  bench::note("Disagreement cells reproduce the paper's explanations: "
              "IP(B)/Frag(N) = upstream-only devices; IP(N)/Frag(B) = "
              "downstream-only devices; IP(N)/Echo(B) = failure noise.");

  const int e_total = e_nn + e_nb + e_bn + e_bb;
  const int f_total = f_nn + f_nb + f_bn + f_bb;
  report.metric("echo_targets", e_total);
  report.metric("echo_hamming",
                e_total ? double(e_nb + e_bn) / e_total : 0.0);
  report.metric("frag_targets", f_total);
  report.metric("frag_hamming",
                f_total ? double(f_nb + f_bn) / f_total : 0.0);
  report.write();
  return 0;
}
