// tspucli — command-line driver for the tspu-lab testbed.
//
// Spins up the Figure-1 scenario (or the national topology for `scan`) and
// runs one measurement, printing pcap-style evidence. Usage:
//
//   tspucli probe-sni <domain> [--isp NAME] [--pcap]
//   tspucli quic [--version v1|draft29|quicping] [--size N] [--isp NAME]
//   tspucli sequence <Ls,Rs,Lsa,...> [--sni DOMAIN] [--isp NAME]
//   tspucli timeout <Ls,SLEEP,Rsa,...> [--sni DOMAIN] [--isp NAME]
//   tspucli locate [--sni DOMAIN] [--isp NAME]
//   tspucli traceroute [--isp NAME]
//   tspucli strategies [--isp NAME]
//   tspucli scan [--scale S] [--ases N] [--max M] [--json]
//   tspucli dump-ch <domain>
//   tspucli help
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "circumvent/strategies.h"
#include "measure/behavior.h"
#include "measure/report.h"
#include "measure/scan.h"
#include "measure/seq_explorer.h"
#include "measure/timeout_estimator.h"
#include "measure/traceroute.h"
#include "measure/ttl_localize.h"
#include "measure/upstream_detect.h"
#include "netsim/pcap.h"
#include "quic/quic.h"
#include "tls/fuzz.h"
#include "topo/scenario.h"
#include "util/strings.h"
#include "util/table.h"

using namespace tspu;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::string isp = "ER-Telecom";
  std::string sni = "facebook.com";
  std::string version = "v1";
  std::size_t size = 1200;
  double scale = 0.001;
  int ases = 120;
  std::size_t max = 500;
  bool pcap = false;
  bool json = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--isp") args.isp = next();
    else if (a == "--sni") args.sni = next();
    else if (a == "--version") args.version = next();
    else if (a == "--size") args.size = std::strtoul(next().c_str(), nullptr, 10);
    else if (a == "--scale") args.scale = std::atof(next().c_str());
    else if (a == "--ases") args.ases = std::atoi(next().c_str());
    else if (a == "--max") args.max = std::strtoul(next().c_str(), nullptr, 10);
    else if (a == "--pcap") args.pcap = true;
    else if (a == "--json") args.json = true;
    else args.positional.push_back(a);
  }
  return args;
}

topo::Scenario make_scenario() {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.02;
  cfg.perfect_devices = true;
  return topo::Scenario(cfg);
}

int cmd_probe_sni(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: tspucli probe-sni <domain> [--isp NAME]\n");
    return 2;
  }
  auto scenario = make_scenario();
  auto& vp = scenario.vp(args.isp);
  auto r = measure::test_sni(scenario.net(), *vp.host,
                             scenario.us_machine(0).addr(),
                             args.positional[0],
                             measure::ClassifyDepth::kFull);
  std::printf("SNI %s from %s: %s\n", args.positional[0].c_str(),
              args.isp.c_str(), measure::sni_outcome_name(r.outcome).c_str());
  std::printf("  server hello: %s, RST seen: %s, burst responses: %d, "
              "post-idle responses: %d\n",
              r.got_server_hello ? "yes" : "no", r.got_rst ? "yes" : "no",
              r.exchange_responses, r.recovery_responses);
  if (args.pcap) {
    std::printf("\n%s", netsim::dump_capture(vp.host->captured()).c_str());
  }
  return 0;
}

int cmd_quic(const Args& args) {
  auto scenario = make_scenario();
  auto& vp = scenario.vp(args.isp);
  std::uint32_t version = quic::kVersion1;
  if (args.version == "draft29") version = quic::kVersionDraft29;
  else if (args.version == "quicping") version = quic::kVersionQuicPing;
  else if (args.version != "v1") {
    std::fprintf(stderr, "unknown QUIC version '%s'\n", args.version.c_str());
    return 2;
  }
  auto r = measure::test_quic(scenario.net(), *vp.host,
                              scenario.us_machine(0).addr(), version,
                              args.size);
  std::printf("QUIC %s (%zu bytes) from %s: initial %s, follow-up %s -> %s\n",
              quic::version_name(version).c_str(), args.size,
              args.isp.c_str(), r.initial_answered ? "answered" : "silent",
              r.follow_up_answered ? "answered" : "silent",
              r.blocked ? "FLOW BLOCKED" : "open");
  return 0;
}

int cmd_sequence(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: tspucli sequence <Ls,Rs,...> [--sni DOMAIN]\n");
    return 2;
  }
  auto scenario = make_scenario();
  auto& vp = scenario.vp(args.isp);
  const auto prefix = util::split(args.positional[0], ',');
  auto r = measure::run_sequence(scenario.net(), *vp.host,
                                 scenario.us_raw_machine(), prefix, args.sni);
  std::printf("prefix %s + trigger(%s): %s (ClientHello %s the remote)\n",
              measure::sequence_str(prefix).c_str(), args.sni.c_str(),
              measure::sequence_verdict_name(r.verdict).c_str(),
              r.remote_got_clienthello ? "reached" : "never reached");
  return 0;
}

int cmd_timeout(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: tspucli timeout <Ls,SLEEP,...> [--sni DOMAIN]\n");
    return 2;
  }
  auto scenario = make_scenario();
  auto& vp = scenario.vp(args.isp);
  measure::TimeoutProbe probe;
  probe.steps = util::split(args.positional[0], ',');
  probe.trigger_sni = args.sni;
  auto est = measure::estimate_timeout(scenario.net(), *vp.host,
                                       scenario.us_raw_machine(), probe);
  std::printf("sequence %s: fresh=%s stale=%s", args.positional[0].c_str(),
              est.blocked_when_fresh ? "DROP" : "PASS",
              est.blocked_when_stale ? "DROP" : "PASS");
  if (est.seconds) {
    std::printf(", verdict flips at %d s\n", *est.seconds);
  } else {
    std::printf(", no flip in [1, 600] s\n");
  }
  return 0;
}

int cmd_locate(const Args& args) {
  auto scenario = make_scenario();
  auto& vp = scenario.vp(args.isp);
  auto r = measure::locate_sni_device(scenario.net(), *vp.host,
                                      scenario.us_machine(0).addr(), args.sni);
  if (r.first_blocking_ttl) {
    std::printf("%s: SNI trigger blocked from TTL %d -> device between hop "
                "%d and %d\n", args.isp.c_str(), *r.first_blocking_ttl,
                *r.first_blocking_ttl - 1, *r.first_blocking_ttl);
  } else {
    std::printf("%s: no blocking observed for %s\n", args.isp.c_str(),
                args.sni.c_str());
  }
  auto up = measure::detect_upstream_only(scenario.net(), *vp.host,
                                          scenario.us_raw_machine(),
                                          "nordvpn.com");
  if (up.device_ttl) {
    std::printf("upstream-only device additionally detected at hop %d\n",
                *up.device_ttl);
  } else {
    std::printf("no upstream-only device on this path\n");
  }
  return 0;
}

int cmd_traceroute(const Args& args) {
  auto scenario = make_scenario();
  auto& vp = scenario.vp(args.isp);
  auto route = measure::tcp_traceroute(scenario.net(), *vp.host,
                                       scenario.us_machine(0).addr(), 443);
  for (std::size_t i = 0; i < route.hops.size(); ++i) {
    std::printf("%2zu  %s\n", i + 1, route.hops[i].str().c_str());
  }
  if (route.reached) {
    std::printf("%2d  %s (destination)\n", route.destination_ttl,
                scenario.us_machine(0).addr().str().c_str());
  }
  return 0;
}

int cmd_strategies(const Args& args) {
  auto scenario = make_scenario();
  auto& vp = scenario.vp(args.isp);
  util::Table table({"strategy", "side", "SNI-I", "SNI-II", "QUIC"});
  for (const auto& o : circumvent::evaluate_strategies(scenario, vp)) {
    auto cell = [](bool applicable, bool evades) -> std::string {
      return !applicable ? "-" : evades ? "EVADES" : "blocked";
    };
    table.row({circumvent::strategy_name(o.strategy),
               circumvent::is_server_side(o.strategy) ? "server" : "client",
               cell(o.applicable_to_tls, o.evades_sni_i),
               cell(o.applicable_to_tls, o.evades_sni_ii),
               cell(o.applicable_to_quic, o.evades_quic)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_scan(const Args& args) {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = args.scale;
  cfg.n_ases = static_cast<std::size_t>(args.ases);
  measure::ParallelScanConfig sc;
  sc.localize = true;
  sc.trace_links = true;
  sc.spread_sample = args.max;  // 0 probes every endpoint
  const measure::ScanSummary summary = measure::parallel_scan(cfg, sc).summary;

  if (args.json) {
    std::printf("%s\n", measure::scan_summary_json(summary).c_str());
    return 0;
  }
  std::printf("probed %zu endpoints in %zu ASes: %zu TSPU-positive (%s) "
              "in %zu ASes\n",
              summary.endpoints_probed, summary.ases_probed.size(),
              summary.tspu_positive,
              util::format_pct(summary.positive_share()).c_str(),
              summary.ases_positive.size());
  std::printf("distinct TSPU links: %zu; within two hops of destination: "
              "%s\n", summary.tspu_links.size(),
              util::format_pct(summary.within_hops_share(2), 0).c_str());
  for (const auto& [port, pair] : summary.by_port) {
    std::printf("  port %-6u %5d probed  %5d positive\n", port, pair.first,
                pair.second);
  }
  return 0;
}

int cmd_dump_ch(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: tspucli dump-ch <domain>\n");
    return 2;
  }
  tls::ClientHelloSpec spec;
  spec.sni = args.positional[0];
  const auto ch = tls::build_client_hello(spec);
  std::printf("%s\n", netsim::hex_dump(ch).c_str());
  const auto classes = tls::classify_bytes(ch);
  std::printf("byte classes (S=structural, N=SNI, .=opaque):\n");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (i % 32 == 0) std::printf("\n%04zx  ", i);
    std::printf("%c", classes[i] == tls::FieldClass::kStructural ? 'S'
                      : classes[i] == tls::FieldClass::kSniBytes ? 'N'
                                                                 : '.');
  }
  std::printf("\n");
  return 0;
}

int usage() {
  std::printf(
      "tspucli — drive the tspu-lab testbed\n\n"
      "  probe-sni <domain> [--isp NAME] [--pcap]   classify SNI blocking\n"
      "  quic [--version v1|draft29|quicping]       QUIC filter test\n"
      "  sequence <Ls,Rs,Lsa>  [--sni D]            play a TCP flag prefix\n"
      "  timeout <Ls,SLEEP,Rsa> [--sni D]           estimate a state timeout\n"
      "  locate [--sni D] [--isp NAME]              TTL-localize devices\n"
      "  traceroute [--isp NAME]                    TCP SYN traceroute\n"
      "  strategies [--isp NAME]                    SS8 circumvention matrix\n"
      "  scan [--scale S] [--ases N] [--max M] [--json]  national frag-scan\n"
      "                                             of about M endpoints spread\n"
      "                                             over the world (0 = all)\n"
      "  dump-ch <domain>                           hex+class dump of a CH\n"
      "\nISPs: Rostelecom (2 devices), ER-Telecom (1), OBIT (3)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.command == "probe-sni") return cmd_probe_sni(args);
  if (args.command == "quic") return cmd_quic(args);
  if (args.command == "sequence") return cmd_sequence(args);
  if (args.command == "timeout") return cmd_timeout(args);
  if (args.command == "locate") return cmd_locate(args);
  if (args.command == "traceroute") return cmd_traceroute(args);
  if (args.command == "strategies") return cmd_strategies(args);
  if (args.command == "scan") return cmd_scan(args);
  if (args.command == "dump-ch") return cmd_dump_ch(args);
  return usage();
}
