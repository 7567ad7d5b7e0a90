#include "circumvent/strategies.h"

#include "measure/common.h"
#include "quic/quic.h"
#include "runner/runner.h"
#include "tls/clienthello.h"

namespace tspu::circumvent {
namespace {

/// Builds a ClientHello with a benign TLS record prepended — a single-record
/// DPI parser stops at the first record and never finds the SNI (§8).
util::Bytes prepended_record_ch(const std::string& sni) {
  util::ByteWriter w;
  w.u8(tls::kContentTypeHandshake);
  w.u16(tls::kVersionTls10);
  w.u16(4);
  w.u8(0x04);  // new_session_ticket: harmless to the real server's parser
  w.u24(0);
  tls::ClientHelloSpec spec;
  spec.sni = sni;
  w.raw(tls::build_client_hello(spec));
  return std::move(w).take();
}

}  // namespace

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kBaseline: return "baseline (none)";
    case Strategy::kSmallWindow: return "server: small window";
    case Strategy::kMssClamp: return "server: MSS clamp (ext)";
    case Strategy::kSplitHandshake: return "server: split handshake";
    case Strategy::kCombined: return "server: split + small window";
    case Strategy::kServerWaitTimeout: return "server: wait out SYN-SENT";
    case Strategy::kIpFragmentCh: return "client: IP-fragment CH";
    case Strategy::kTcpSegmentCh: return "client: TCP-segment CH";
    case Strategy::kPaddedCh: return "client: padded CH";
    case Strategy::kPrependedRecord: return "client: prepend TLS record";
    case Strategy::kTtlDecoy: return "client: TTL-limited decoy";
    case Strategy::kQuicDraft29: return "client: QUIC draft-29";
    case Strategy::kQuicPing: return "client: quicping version";
  }
  return "?";
}

bool is_server_side(Strategy s) {
  switch (s) {
    case Strategy::kSmallWindow:
    case Strategy::kMssClamp:
    case Strategy::kSplitHandshake:
    case Strategy::kCombined:
    case Strategy::kServerWaitTimeout:
      return true;
    default:
      return false;
  }
}

bool tls_exchange_succeeds(topo::Scenario& scenario, topo::VantagePoint& vp,
                           Strategy strategy, const std::string& sni) {
  auto& net = scenario.net();
  netsim::Host& server = scenario.us_raw_machine();
  netsim::Host& client = *vp.host;

  // Install the strategy server on the quiet machine's :443.
  netsim::TcpServerOptions server_opts = netsim::tls_server_options();
  switch (strategy) {
    case Strategy::kSmallWindow:
      server_opts.window = 64;  // forces the client to split the CH
      break;
    case Strategy::kMssClamp:
      server_opts.mss = 48;  // same splitting effect via the MSS option
      break;
    case Strategy::kSplitHandshake:
      server_opts.split_handshake = true;
      break;
    case Strategy::kCombined:
      server_opts.split_handshake = true;
      server_opts.window = 64;
      break;
    case Strategy::kServerWaitTimeout:
      // Handled below: the *handshake reply* must be late, which this mini
      // stack models by delaying the whole service registration.
      break;
    default:
      break;
  }
  server.listen(443, server_opts);

  netsim::TcpClientOptions client_opts;
  client_opts.src_port = measure::fresh_port();
  switch (strategy) {
    case Strategy::kIpFragmentCh:
      client_opts.ip_fragment_payload = 64;
      break;
    case Strategy::kTcpSegmentCh:
      client_opts.max_segment = 64;
      break;
    default:
      break;
  }

  // Success = the ServerHello arrives AND a sustained exchange survives;
  // the latter is what separates real evasion from SNI-II's grace window.
  auto sustained_ok = [&](netsim::TcpClient& conn) {
    if (conn.received().empty() || conn.got_rst()) return false;
    const int before = conn.data_segments_received();
    for (int i = 0; i < 8; ++i) {
      conn.send(util::to_bytes("probe-" + std::to_string(i)));
      net.sim().run_until_idle();
    }
    return !conn.got_rst() && conn.data_segments_received() - before >= 7;
  };

  bool ok = false;
  if (strategy == Strategy::kServerWaitTimeout) {
    // Client SYNs while the server is silent; the TSPU's SYN-SENT entry
    // (60 s) expires; the server then completes the handshake, making the
    // flow look server-initiated from the device's perspective.
    server.close_port(443);
    netsim::TcpClient& conn = client.connect(server.addr(), 443, client_opts);
    net.sim().run_until_idle();
    net.sim().run_for(util::Duration::seconds(70));
    // Late SYN/ACK, crafted from the server side against the client's ISN.
    wire::TcpHeader synack;
    synack.src_port = 443;
    synack.dst_port = client_opts.src_port;
    synack.seq = 0x9e000000;
    synack.ack = conn.snd_nxt();
    synack.flags = wire::kSynAck;
    server.send_tcp(client.addr(), synack);
    net.sim().run_until_idle();
    if (conn.established_once()) {
      tls::ClientHelloSpec spec;
      spec.sni = sni;
      conn.send(tls::build_client_hello(spec));
      net.sim().run_until_idle();
      // Crafted late "ServerHello" responses judge whether the downstream
      // direction survived the trigger.
      std::uint32_t seq = 0x9e000000 + 1;
      for (int i = 0; i < 3; ++i) {
        wire::TcpHeader data;
        data.src_port = 443;
        data.dst_port = client_opts.src_port;
        data.seq = seq;
        data.ack = conn.snd_nxt();
        data.flags = wire::kPshAck;
        const util::Bytes payload = util::to_bytes("late-response-" +
                                                   std::to_string(i));
        server.send_tcp(client.addr(), data, payload);
        seq += static_cast<std::uint32_t>(payload.size());
        net.sim().run_until_idle();
      }
      ok = !conn.got_rst() && conn.data_segments_received() >= 3;
    }
  } else {
    netsim::TcpClient& conn = client.connect(server.addr(), 443, client_opts);
    net.sim().run_until_idle();
    if (conn.established_once()) {
      tls::ClientHelloSpec spec;
      spec.sni = sni;
      util::Bytes ch;
      switch (strategy) {
        case Strategy::kPaddedCh:
          spec.pad_to = 2600;  // > one MSS: the stack sends two segments
          ch = tls::build_client_hello(spec);
          break;
        case Strategy::kPrependedRecord:
          ch = prepended_record_ch(sni);
          break;
        case Strategy::kTtlDecoy: {
          // Garbage that dies mid-path, then the real CH. The TSPU's
          // inspection window covers later packets, so this is mitigated.
          util::Bytes decoy = util::to_bytes("decoy-garbage-payload");
          conn.send_segment(wire::kPshAck, decoy, /*ttl=*/3,
                            /*advance_seq=*/false);
          net.sim().run_until_idle();
          ch = tls::build_client_hello(spec);
          break;
        }
        default:
          ch = tls::build_client_hello(spec);
          break;
      }
      conn.send(std::move(ch));
      net.sim().run_until_idle();
      ok = sustained_ok(conn);
    }
  }

  server.close_port(443);
  client.reset_traffic_state();
  server.reset_traffic_state();
  net.sim().run_for(util::Duration::seconds(1));
  return ok;
}

bool quic_exchange_succeeds(topo::Scenario& scenario, topo::VantagePoint& vp,
                            Strategy strategy) {
  std::uint32_t version = quic::kVersion1;
  if (strategy == Strategy::kQuicDraft29) version = quic::kVersionDraft29;
  if (strategy == Strategy::kQuicPing) version = quic::kVersionQuicPing;
  auto result = measure::test_quic(scenario.net(), *vp.host,
                                   scenario.us_machine(0).addr(), version);
  vp.host->reset_traffic_state();
  return !result.blocked;
}

std::vector<StrategyOutcome> evaluate_strategies(topo::Scenario& scenario,
                                                 topo::VantagePoint& vp) {
  const std::string sni_i_domain = "facebook.com";
  const std::string sni_ii_domain = "nordvpn.com";

  // Every exchange is its own trial, like a DomainTester item: begin_trial
  // reseeds the devices and rewinds the hosts and the fresh-port counter, so
  // no exchange sees the state an earlier one left behind.
  std::uint64_t exchange = 0;
  auto begin_exchange = [&] {
    scenario.begin_trial(runner::item_seed(0, exchange++));
  };
  std::vector<StrategyOutcome> out;
  for (Strategy s :
       {Strategy::kBaseline, Strategy::kSmallWindow, Strategy::kMssClamp,
        Strategy::kSplitHandshake,
        Strategy::kCombined, Strategy::kServerWaitTimeout,
        Strategy::kIpFragmentCh, Strategy::kTcpSegmentCh, Strategy::kPaddedCh,
        Strategy::kPrependedRecord, Strategy::kTtlDecoy,
        Strategy::kQuicDraft29, Strategy::kQuicPing}) {
    StrategyOutcome o;
    o.strategy = s;
    if (s == Strategy::kQuicDraft29 || s == Strategy::kQuicPing) {
      o.applicable_to_tls = false;
      o.applicable_to_quic = true;
      begin_exchange();
      o.evades_quic = quic_exchange_succeeds(scenario, vp, s);
    } else {
      begin_exchange();
      o.evades_sni_i = tls_exchange_succeeds(scenario, vp, s, sni_i_domain);
      begin_exchange();
      o.evades_sni_ii = tls_exchange_succeeds(scenario, vp, s, sni_ii_domain);
      if (s == Strategy::kBaseline) {
        o.applicable_to_quic = true;
        begin_exchange();
        o.evades_quic = quic_exchange_succeeds(scenario, vp, s);
      }
    }
    out.push_back(o);
  }
  return out;
}

}  // namespace tspu::circumvent
