// Figure 9: national fragmentation-fingerprint scan — endpoints with TSPU
// behavior broken down by port, plus the AS breadth and the US control
// population where the 45-fragment limit is rare (§7.2 prose).
//
// The scan itself runs on the shard runner (one NationalTopology replica per
// worker), so TSPU_BENCH_JOBS only changes the wall time, never the numbers.
#include <map>

#include "bench_common.h"
#include "ispdpi/middleboxes.h"
#include "measure/common.h"
#include "measure/frag_probe.h"
#include "measure/scan.h"
#include "netsim/router.h"
#include "topo/national.h"
#include "util/strings.h"
#include "util/table.h"

using namespace tspu;

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("fig9_ports", 0.004);
  const double scale = report.scale();
  bench::banner("Figure 9", "Endpoints with TSPU installations by port "
                            "(endpoint scale " + std::to_string(scale) +
                            " of the paper's 4,005,138)");

  topo::NationalConfig cfg;
  cfg.endpoint_scale = scale;
  cfg.n_ases = bench::env_int("TSPU_BENCH_ASES", 400);

  measure::ParallelScanConfig scan_cfg;
  scan_cfg.fingerprint = true;
  const auto outcome =
      measure::parallel_scan(cfg, scan_cfg, report.jobs());
  const measure::ScanSummary& s = outcome.summary;

  std::map<std::uint16_t, int> total_by_port, positive_by_port;
  for (const auto& [port, counts] : s.by_port) {
    total_by_port[port] = counts.first;
    positive_by_port[port] = counts.second;
  }

  util::Table table({"port", "endpoints", "TSPU-positive", "share", "bar"});
  for (std::uint16_t port : topo::kScanPorts) {
    const int n = total_by_port[port];
    const int p = positive_by_port[port];
    const double share = n == 0 ? 0 : double(p) / n;
    table.row({std::to_string(port), util::with_commas(n),
               util::with_commas(p), util::format_pct(share, 0),
               std::string(static_cast<std::size_t>(share * 40), '#')});
  }
  std::printf("%s\n", table.render().c_str());
  const int total = static_cast<int>(s.endpoints_probed);
  const int positive = static_cast<int>(s.tspu_positive);
  std::printf("total: %s endpoints in %zu ASes; TSPU-positive: %s (%s) in "
              "%zu ASes\n",
              util::with_commas(total).c_str(), s.ases_probed.size(),
              util::with_commas(positive).c_str(),
              util::format_pct(double(positive) / std::max(total, 1)).c_str(),
              s.ases_positive.size());
  std::printf("paper: 4,005,138 endpoints in 4,986 ASes; 1,013,600 (25.31%%) "
              "in 650 ASes; port 7547 highest (residential CPE), >3x the "
              "server ports\n");

  report.metric("endpoints_probed", s.endpoints_probed);
  report.metric("tspu_positive", s.tspu_positive);
  report.metric("positive_share", s.positive_share());
  report.metric("ases_probed", s.ases_probed.size());
  report.metric("ases_positive", s.ases_positive.size());

  // ---- US control population: a Linux-like path and vendor middleboxes,
  // none of which shows the 45/46 signature.
  {
    bench::banner("Figure 9 control", "US hosts on :7547 (no TSPU-like limit)");
    netsim::Network net;
    auto prober_p = std::make_unique<netsim::Host>("prober",
                                                   util::Ipv4Addr(9, 9, 9, 9));
    auto* prober = prober_p.get();
    const auto pid = net.add(std::move(prober_p));
    const auto r = net.add(std::make_unique<netsim::Router>(
        "r", util::Ipv4Addr(9, 9, 9, 1)));
    net.link(pid, r);
    net.routes(pid).set_default(r);
    net.routes(r).add(util::Ipv4Prefix(prober->addr(), 32), pid);

    struct Control {
      const char* name;
      wire::ReassemblyConfig cfg;
      bool reassembles;
    };
    const Control controls[] = {
        {"plain Linux-like host (no middlebox)", {}, false},
        {"Cisco-like box (24-fragment limit)",
         ispdpi::cisco_like_reassembly(), true},
        {"Juniper-like box (250-fragment limit)",
         ispdpi::juniper_like_reassembly(), true},
        {"RFC5722-style reassembling DPI", ispdpi::linux_like_reassembly(),
         true},
    };
    util::Table ct({"path", "responds@45", "responds@46", "TSPU-like?"});
    std::uint32_t next_ip = util::Ipv4Addr(9, 9, 10, 1).value();
    int false_positives = 0;
    for (const auto& c : controls) {
      auto host_p = std::make_unique<netsim::Host>(
          c.name, util::Ipv4Addr(next_ip++));
      auto* host = host_p.get();
      host->listen(7547, netsim::TcpServerOptions{});
      const auto hid = net.add(std::move(host_p));
      net.link(r, hid);
      net.routes(r).add(util::Ipv4Prefix(host->addr(), 32), hid);
      net.routes(hid).set_default(r);
      if (c.reassembles) {
        net.insert_inline(hid, r,
                          std::make_unique<ispdpi::FragmentInspectingBox>(
                              std::string("box-") + c.name, c.cfg,
                              /*forward_reassembled=*/true));
      }
      // Direct (non-sharded) probing on this thread: rewind the thread-local
      // port counter first. A jobs=1 scan above runs inline and advances it,
      // a jobs>1 scan does not — without the reset the control section's
      // source ports (and its packet trace) would depend on the job count.
      measure::reset_fresh_port();
      auto res = measure::probe_fragment_limit(net, *prober, host->addr(), 7547);
      if (res.tspu_like()) ++false_positives;
      ct.row({c.name, res.responded_45 ? "yes" : "no",
              res.responded_46 ? "yes" : "no",
              res.tspu_like() ? "YES (false positive!)" : "no"});
    }
    std::printf("%s", ct.render().c_str());
    bench::note("paper: only 0.708% of 1M US hosts on :7547 showed a similar "
                "queue limit, mostly one AS — the 45-fragment boundary is a "
                "distinctive TSPU fingerprint.");
    report.metric("control_false_positives", false_positives);
  }
  report.write();
  return 0;
}
