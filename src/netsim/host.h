// End hosts: packet capture, raw injection, and miniature TCP/UDP stacks.
//
// Measurement code in this project works the way the paper's does: craft
// packets, send them, and look at captures from both ends. Hosts therefore
// expose a raw interface (send_packet + captured()) alongside small scripted
// TCP server/client state machines used for realistic flows (handshakes,
// ClientHello exchanges, echo servers). Both stacks retransmit unacked data
// on a 1-second timer with a bounded attempt budget — necessary to observe
// throttling as a *rate* (the paper's ~650 B/s) rather than a stall, while
// hard drops still kill flows once the budget is spent.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netsim/node.h"
#include "util/bytes.h"
#include "util/inplace_function.h"
#include "util/flat_map.h"
#include "util/time.h"
#include "wire/fragment.h"
#include "wire/ipv4.h"
#include "wire/tcp.h"
#include "wire/udp.h"

namespace tspu::netsim {

struct CapturedPacket {
  util::Instant time;
  bool outbound = false;
  wire::Packet pkt;
};

/// Response generator for a TCP service: receives the application bytes of
/// one inbound segment, returns bytes to send back (empty = just ACK).
/// Inline-only storage (64 bytes): handlers are looked up per delivered
/// segment, so their state must be a few pointers, never a heap closure.
using TcpDataHandler =
    util::InplaceFunction<64, util::Bytes(std::span<const std::uint8_t>)>;

struct TcpServerOptions {
  std::uint16_t window = 65535;
  /// MSS option announced on the server's SYN/SYN-ACK (0 = omit). An MSS
  /// below the ClientHello size forces the client to split it — the MSS
  /// sibling of the small-window strategy (extension beyond the paper).
  std::uint16_t mss = 0;
  /// Server-side circumvention (§8): answer the client's SYN with a bare SYN
  /// (Split Handshake) instead of SYN/ACK.
  bool split_handshake = false;
  /// Max bytes per response segment (server-side TCP segmentation).
  std::size_t max_segment = 1460;
  /// Delay before sending the response bytes (the "wait out the TSPU
  /// SYN-SENT timeout" strategy from §8 sets this large).
  util::Duration response_delay{};
  TcpDataHandler on_data;  ///< nullptr = sink: ACK data, never respond
};

/// Echoes everything back — TCP port 7 servers used by Quack (§7.2).
TcpServerOptions echo_server_options();
/// Replies to any data with a ServerHello — the measurement machines' :443.
TcpServerOptions tls_server_options();

/// Monotonically increasing ephemeral source ports for measurement flows.
/// Every test of a sequence uses a fresh source port "to prevent residual
/// censorship affecting results of subsequent tests" (§3). The counter is
/// thread-local so parallel shards never observe each other's allocations.
std::uint16_t fresh_port();

/// Rewinds this thread's fresh_port() counter. topo::World::begin_trial
/// calls it, so the ports a work item uses depend only on the item itself,
/// not on the items that ran before it on the same shard.
void reset_fresh_port();

struct TcpClientOptions {
  std::uint16_t src_port = 40000;
  std::uint8_t ttl = 64;
  std::uint16_t window = 65535;
  std::size_t max_segment = 1460;
  /// MSS announced on our SYN (0 = omit the option).
  std::uint16_t mss = 1460;
  /// >0: IP-fragment outgoing data packets into payloads of this many bytes
  /// (client-side circumvention, §8).
  std::size_t ip_fragment_payload = 0;
};

class Host;

/// One active client connection. Owned by the Host; observe it after running
/// the simulation.
class TcpClient {
 public:
  enum class State { kClosed, kSynSent, kSynReceived, kEstablished, kReset };

  /// Queues bytes; sent immediately when established.
  void send(util::Bytes data);
  void close();  ///< sends FIN/ACK when established

  /// Injects a crafted segment into this connection with the current
  /// sequence numbers — the hybrid the paper's experiments use: a normal
  /// stack for the handshake, crafted packets (e.g. TTL-limited triggers)
  /// mid-flow. `advance_seq=false` leaves snd_nxt untouched so a subsequent
  /// normal send() overlaps this segment's sequence range (the receiver
  /// accepts whichever arrives; useful when the crafted packet is expected
  /// to die in transit).
  void send_segment(wire::TcpFlags flags, std::span<const std::uint8_t> payload,
                    std::uint8_t ttl, bool advance_seq = false);

  std::uint32_t snd_nxt() const { return snd_nxt_; }
  std::uint32_t rcv_nxt() const { return rcv_nxt_; }
  std::uint16_t src_port() const { return opts_.src_port; }

  State state() const { return state_; }
  bool established_once() const { return established_once_; }
  bool got_rst() const { return rst_count_ > 0; }
  int rst_count() const { return rst_count_; }
  /// In-order reassembled bytes from the peer.
  const util::Bytes& received() const { return received_; }
  /// Count of payload-bearing segments that carried NEW data (sequence
  /// ranges not seen before). Duplicates from retransmission don't count,
  /// so censors that stall a flow can't be mistaken for delivery.
  int data_segments_received() const { return data_segments_; }

 private:
  friend class Host;
  TcpClient(Host& host, util::Ipv4Addr dst, std::uint16_t dst_port,
            TcpClientOptions opts);
  void start();
  void handle(const wire::TcpSegment& seg);
  void transmit(wire::TcpFlags flags, std::span<const std::uint8_t> payload);
  void flush_pending();
  void queue_retx(std::uint32_t seq, util::Bytes payload);
  void arm_retx_timer();
  void on_retx_timer();

  /// One unacknowledged data segment awaiting ACK or retransmission.
  struct Unacked {
    std::uint32_t seq;
    util::Bytes payload;
    int attempts = 0;
  };

  Host& host_;
  util::Ipv4Addr dst_;
  std::uint16_t dst_port_;
  TcpClientOptions opts_;
  /// Peer's advertised receive window (from its SYN/SYN-ACK); outgoing
  /// segments never exceed it — the hook the brdgrd-style server-side
  /// small-window strategy relies on (§8).
  std::uint16_t peer_window_ = 65535;
  /// Peer's announced MSS (0 = none seen); outgoing segments honor it.
  std::uint16_t peer_mss_ = 0;
  State state_ = State::kClosed;
  bool established_once_ = false;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  int rst_count_ = 0;
  int data_segments_ = 0;
  std::uint32_t highest_data_seq_ = 0;  ///< dedup horizon for the counter
  bool any_data_seen_ = false;
  util::Bytes received_;
  std::vector<util::Bytes> pending_;
  std::vector<Unacked> unacked_;
  bool retx_armed_ = false;
};

class Host : public Node {
 public:
  Host(std::string name, util::Ipv4Addr addr);

  void receive(wire::Packet pkt, NodeId from) override;

  // ---- raw interface ----

  /// Routes a crafted packet into the network (recorded as outbound capture).
  void send_packet(wire::Packet pkt);

  /// Sends a crafted TCP segment from this host's address.
  void send_tcp(util::Ipv4Addr dst, const wire::TcpHeader& tcp,
                std::span<const std::uint8_t> payload = {},
                std::uint8_t ttl = 64);

  void send_udp(util::Ipv4Addr dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::span<const std::uint8_t> payload,
                std::uint8_t ttl = 64);

  void send_ping(util::Ipv4Addr dst, std::uint16_t icmp_id,
                 std::uint16_t seq = 1, std::uint8_t ttl = 64);

  // ---- capture ----

  const std::vector<CapturedPacket>& captured() const { return captured_; }
  void clear_captured() { captured_.clear(); }
  /// Caps the capture buffer; national-scale endpoints set a small cap.
  void set_capture_limit(std::size_t n) { capture_limit_ = n; }

  // ---- servers ----

  void listen(std::uint16_t port, TcpServerOptions opts);
  void close_port(std::uint16_t port);
  bool listening_on(std::uint16_t port) const { return services_.count(port); }

  using UdpHandler = util::InplaceFunction<
      64, void(Host&, util::Ipv4Addr src, const wire::UdpDatagram&)>;
  void udp_listen(std::uint16_t port, UdpHandler handler);

  // ---- client ----

  TcpClient& connect(util::Ipv4Addr dst, std::uint16_t dst_port,
                     TcpClientOptions opts = {});

  /// Drops captures, finished client connections, and server flow state.
  /// topo::World::begin_trial calls this for every host its world
  /// registered, between work items; references returned by connect()
  /// become invalid.
  void reset_traffic_state();

  // ---- behavior knobs ----

  /// Whether this host answers ICMP echo requests (default true).
  bool respond_icmp_echo = true;
  /// Whether TCP to a closed port elicits RST/ACK (default true, like every
  /// mainstream OS).
  bool rst_on_closed_port = true;
  std::uint8_t default_ttl = 64;

  /// Inbound fragment reassembly config (default Linux-like: 64-fragment
  /// queue, ignore-duplicates, 30 s). Endpoint OS diversity in the national
  /// scan perturbs this.
  void set_reassembly(wire::ReassemblyConfig cfg);

  std::uint16_t next_ip_id() { return ip_id_++; }

  /// Rewinds the IP-ID and ISS counters to their construction values.
  /// topo::World::begin_trial calls this between work items so a probe's
  /// packet trace does not depend on how many probes ran before it on the
  /// same replica.
  void reset_protocol_counters() {
    ip_id_ = 1;
    next_iss_ = 1u << 20;
  }

 private:
  struct FlowKey {
    util::Ipv4Addr peer;
    std::uint16_t peer_port;
    std::uint16_t local_port;
    friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
  };

  enum class ServerFlowState { kSynReceived, kSynSentSplit, kEstablished };

  struct UnackedSegment {
    std::uint32_t seq;
    util::Bytes payload;
    int attempts = 0;
  };

  struct ServerFlow {
    ServerFlowState state = ServerFlowState::kSynReceived;
    std::uint32_t snd_nxt = 0;
    std::uint32_t rcv_nxt = 0;
    std::uint16_t peer_mss = 0;  ///< client's announced MSS
    std::vector<UnackedSegment> unacked;
    bool retx_armed = false;
  };

  void handle_tcp(const wire::Packet& pkt);
  void handle_udp(const wire::Packet& pkt);
  void handle_icmp(const wire::Packet& pkt);
  void server_transmit(const FlowKey& key, const ServerFlow& flow,
                       wire::TcpFlags flags,
                       std::span<const std::uint8_t> payload,
                       std::uint16_t window);
  void server_respond_data(std::uint16_t port, const FlowKey& key,
                           util::Bytes response);
  void arm_server_retx(std::uint16_t port, const FlowKey& key);
  void server_retx_tick(std::uint16_t port, const FlowKey& key);
  void record(const wire::Packet& pkt, bool outbound);

  std::vector<CapturedPacket> captured_;
  std::size_t capture_limit_ = 1 << 20;
  // Flat maps: handle_tcp touches clients_/services_/server_flows_ on every
  // delivered segment, which makes these the per-packet hot path.
  util::FlatMap<std::uint16_t, TcpServerOptions> services_;
  util::FlatMap<std::uint16_t, UdpHandler> udp_handlers_;
  util::FlatMap<FlowKey, ServerFlow> server_flows_;
  util::FlatMap<FlowKey, std::unique_ptr<TcpClient>> clients_;
  wire::Reassembler reassembler_;
  std::uint16_t ip_id_ = 1;
  std::uint32_t next_iss_ = 1u << 20;

  friend class TcpClient;
};

}  // namespace tspu::netsim
