#include "wire/fragment.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace tspu::wire {

std::vector<Packet> fragment(const Packet& pkt, std::size_t frag_payload_size) {
  if (frag_payload_size < 8) throw std::invalid_argument("fragment size < 8");
  if (pkt.payload.size() <= frag_payload_size) return {pkt};
  if (pkt.ip.dont_fragment)
    throw std::invalid_argument("cannot fragment packet with DF set");
  if (pkt.ip.is_fragment())
    throw std::invalid_argument("refusing to re-fragment a fragment");

  // All fragments except the last must carry a multiple of 8 bytes.
  const std::size_t step = frag_payload_size - frag_payload_size % 8;
  std::vector<Packet> out;
  out.reserve((pkt.payload.size() + step - 1) / step);
  std::size_t offset = 0;
  while (offset < pkt.payload.size()) {
    const std::size_t n = std::min(step, pkt.payload.size() - offset);
    Packet frag;
    frag.ip = pkt.ip;
    frag.ip.frag_offset = static_cast<std::uint16_t>(offset);
    frag.ip.more_fragments = offset + n < pkt.payload.size();
    frag.payload.assign(pkt.payload.begin() + offset,
                        pkt.payload.begin() + offset + n);
    out.push_back(std::move(frag));
    offset += n;
  }
  return out;
}

std::vector<Packet> fragment_into(const Packet& pkt, std::size_t count) {
  if (count == 0) throw std::invalid_argument("fragment_into count == 0");
  if (count == 1) return {pkt};
  // Every fragment but the last needs at least 8 bytes at an 8-aligned offset.
  if (pkt.payload.size() < count * 8)
    throw std::invalid_argument(
        "payload too small to split into " + std::to_string(count) +
        " fragments (need >= " + std::to_string(count * 8) + " bytes)");
  if (pkt.ip.dont_fragment)
    throw std::invalid_argument("cannot fragment packet with DF set");

  const std::size_t per = (pkt.payload.size() / count) / 8 * 8;
  std::vector<Packet> out;
  out.reserve(count);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const bool last = i + 1 == count;
    const std::size_t n = last ? pkt.payload.size() - offset : (per == 0 ? 8 : per);
    Packet frag;
    frag.ip = pkt.ip;
    frag.ip.frag_offset = static_cast<std::uint16_t>(offset);
    frag.ip.more_fragments = !last;
    frag.payload.assign(pkt.payload.begin() + offset,
                        pkt.payload.begin() + offset + n);
    out.push_back(std::move(frag));
    offset += n;
  }
  return out;
}

bool overlaps_any(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges,
    std::uint32_t offset, std::uint32_t end) {
  return std::any_of(ranges.begin(), ranges.end(), [&](const auto& r) {
    return offset < r.second && r.first < end;
  });
}

std::optional<Packet> Reassembler::push(Packet frag, util::Instant now) {
  if (!frag.ip.is_fragment()) return frag;  // atomic datagram

  const FragmentKey key = fragment_key(frag.ip);
  Queue& q = queues_[key];
  if (q.fragments.empty()) q.started = now;

  const std::uint32_t off = frag.ip.frag_offset;
  const std::uint32_t end = off + static_cast<std::uint32_t>(frag.payload.size());

  if (overlaps_any(q.ranges, off, end)) {
    switch (config_.overlap) {
      case OverlapPolicy::kDiscardQueue:
        queues_.erase(key);
        return std::nullopt;
      case OverlapPolicy::kIgnoreNew:
        return std::nullopt;
      case OverlapPolicy::kAcceptFirst:
        // Trim nothing: in this simplified model overlapping new data is
        // simply not recorded, matching first-wins semantics for our
        // non-overlapping probe workloads.
        return std::nullopt;
    }
  }

  if (q.fragments.size() + 1 > config_.max_fragments) {
    queues_.erase(key);
    return std::nullopt;
  }

  if (!frag.ip.more_fragments) {
    q.saw_last = true;
    q.total_len = end;
  }
  q.fragments.push_back(std::move(frag));
  q.ranges.emplace_back(off, end);
  return try_assemble(key, q);
}

std::optional<Packet> Reassembler::try_assemble(const FragmentKey& key,
                                                Queue& q) {
  if (!q.saw_last) return std::nullopt;
  // Check for holes: sorted ranges must tile [0, total_len).
  auto ranges = q.ranges;
  std::sort(ranges.begin(), ranges.end());
  std::uint32_t cursor = 0;
  for (const auto& [lo, hi] : ranges) {
    if (lo != cursor) return std::nullopt;
    cursor = hi;
  }
  if (cursor != q.total_len) return std::nullopt;

  Packet whole;
  // The reassembled datagram takes its header from the first fragment.
  auto first = std::find_if(q.fragments.begin(), q.fragments.end(),
                            [](const Packet& p) { return p.ip.frag_offset == 0; });
  whole.ip = first->ip;
  whole.ip.more_fragments = false;
  whole.ip.frag_offset = 0;
  whole.payload.resize(q.total_len);
  for (const Packet& f : q.fragments) {
    // Guard the copy itself: a fragment extending past the total length
    // declared by the MF=0 fragment's IPv4 header would corrupt memory.
    TSPU_CHECK(f.ip.frag_offset + f.payload.size() <= whole.payload.size(),
               "fragment extends past the reassembled datagram");
    std::copy(f.payload.begin(), f.payload.end(),
              whole.payload.begin() + f.ip.frag_offset);
  }
  TSPU_DCHECK(whole.payload.size() == q.total_len,
              "reassembled payload length must match the IPv4 total length");
  queues_.erase(key);
  return whole;
}

void Reassembler::expire(util::Instant now) {
  for (auto it = queues_.begin(); it != queues_.end();) {
    if (now - it->second.started >= config_.timeout) {
      it = queues_.erase(it);
    } else {
      ++it;
    }
  }
}


}  // namespace tspu::wire
