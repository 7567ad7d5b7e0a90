// Shared helpers for the measurement toolkit: fresh source ports and
// capture-scanning utilities. Everything in measure/ observes the network
// exclusively through packets — no function here reads middlebox state.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netsim/host.h"
#include "wire/tcp.h"
#include "wire/udp.h"

namespace tspu::measure {

/// Fresh source ports (§3). The per-worker counter lives in netsim so the
/// per-item reset, topo::World::begin_trial, rewinds it; code that probes
/// outside a trial calls reset_fresh_port() itself.
using netsim::fresh_port;
using netsim::reset_fresh_port;

/// One parsed TCP segment pulled from a capture.
struct SeenSegment {
  util::Instant time;
  wire::Ipv4Header ip;
  wire::TcpHeader tcp;
  std::size_t payload_size = 0;
  util::Bytes payload;
};

/// All inbound TCP segments at `host` matching the flow
/// (peer, peer_port) -> (host, local_port), in arrival order. Scans from
/// capture index `from` onward.
std::vector<SeenSegment> inbound_tcp(const netsim::Host& host,
                                     util::Ipv4Addr peer,
                                     std::uint16_t peer_port,
                                     std::uint16_t local_port,
                                     std::size_t from = 0);

/// Inbound UDP payload count for the given flow.
int inbound_udp_count(const netsim::Host& host, util::Ipv4Addr peer,
                      std::uint16_t peer_port, std::uint16_t local_port,
                      std::size_t from = 0);

/// First inbound ICMP time-exceeded at `host` whose embedded original
/// packet matches the given IPID; returns the reporting router's address.
std::optional<util::Ipv4Addr> time_exceeded_from(const netsim::Host& host,
                                                 std::uint16_t probe_ipid,
                                                 std::size_t from = 0);

/// True if any inbound segment of the flow is RST/ACK with empty payload —
/// the signature of SNI-I / IP-based response modification.
bool saw_rst_ack(const std::vector<SeenSegment>& segments);

/// Count of inbound segments carrying payload.
int data_segment_count(const std::vector<SeenSegment>& segments);

}  // namespace tspu::measure
