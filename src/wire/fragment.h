// IP fragmentation: splitting, overlap detection, and a policy-configurable
// reassembler.
//
// The TSPU's own fragment handling (buffer-and-forward WITHOUT reassembly,
// §5.3.1) lives in tspu::FragmentEngine; this module provides the mechanics
// both it and the negative-control middleboxes (Linux-like, Cisco-like,
// Juniper-like reassemblers used in §7.2's comparison) are built from.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "util/bytes.h"
#include "util/ip.h"
#include "util/time.h"
#include "wire/ipv4.h"

namespace tspu::wire {

/// Key identifying one fragment queue: the paper observes TSPU keys queues by
/// (source, destination, IPID) (§5.3.1).
struct FragmentKey {
  util::Ipv4Addr src;
  util::Ipv4Addr dst;
  std::uint16_t ip_id = 0;

  friend auto operator<=>(const FragmentKey&, const FragmentKey&) = default;
};

inline FragmentKey fragment_key(const Ipv4Header& h) {
  return FragmentKey{h.src, h.dst, h.id};
}

/// Splits `pkt` into fragments whose payloads are at most `frag_payload_size`
/// bytes (rounded down to a multiple of 8 except for the last fragment).
/// A packet that already fits is returned unchanged as a single element.
/// Throws std::invalid_argument if the packet has DF set and would need
/// splitting, or if frag_payload_size < 8.
std::vector<Packet> fragment(const Packet& pkt, std::size_t frag_payload_size);

/// Splits `pkt` into exactly `count` fragments of near-equal size (all offsets
/// 8-aligned). Used by the fragmentation-fingerprint probes that need "45
/// fragments" vs "46 fragments" of a single SYN (§7.2). Throws if the payload
/// cannot be cut into `count` non-empty 8-aligned pieces.
std::vector<Packet> fragment_into(const Packet& pkt, std::size_t count);

/// True if fragment `b` duplicates or overlaps the byte range of any fragment
/// already recorded in `ranges` (pairs of [offset, end)).
bool overlaps_any(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges,
                  std::uint32_t offset, std::uint32_t end);

/// What a reassembler does when it sees a duplicate/overlapping fragment.
enum class OverlapPolicy {
  kDiscardQueue,  ///< TSPU behavior: drop the whole queue (§5.3.1)
  kIgnoreNew,     ///< RFC 5722-style: ignore the duplicate, keep the queue
  kAcceptFirst,   ///< classic BSD: first bytes win
};

struct ReassemblyConfig {
  std::size_t max_fragments = 64;           ///< Linux default; TSPU uses 45
  OverlapPolicy overlap = OverlapPolicy::kIgnoreNew;
  util::Duration timeout = util::Duration::seconds(30);
};

/// Standard IP reassembler with configurable policy. Returns the reassembled
/// datagram once complete. Also used to model non-TSPU middleboxes that
/// reassemble in place (a confound the paper calls out in §7.3).
class Reassembler {
 public:
  explicit Reassembler(ReassemblyConfig config) : config_(config) {}

  /// Feeds one fragment (or whole packet, which is returned immediately).
  /// Returns the complete datagram when the last hole is filled. Takes the
  /// fragment by value so callers on the per-packet path can move the
  /// payload buffer in instead of copying it into the queue.
  std::optional<Packet> push(Packet fragment, util::Instant now);

  /// Drops queues whose first fragment arrived more than `timeout` ago.
  void expire(util::Instant now);

  std::size_t pending_queues() const { return queues_.size(); }

 private:
  struct Queue {
    std::vector<Packet> fragments;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    util::Instant started;
    bool saw_last = false;
    std::uint32_t total_len = 0;  ///< known once the MF=0 fragment arrives
  };

  std::optional<Packet> try_assemble(const FragmentKey& key, Queue& q);

  ReassemblyConfig config_;
  std::map<FragmentKey, Queue> queues_;
};

}  // namespace tspu::wire
