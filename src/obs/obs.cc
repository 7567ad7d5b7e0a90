#include "obs/obs.h"

#include <cstdlib>
#include <utility>

namespace tspu::obs {

namespace detail {
constinit thread_local TlsState tls;
}  // namespace detail

using detail::tls;

TraceConfig env_trace_config() {
  static const TraceConfig cached = [] {
    TraceConfig cfg;
    const char* trace = std::getenv("TSPU_TRACE");
    cfg.enabled = trace != nullptr && *trace != '\0' &&
                  std::string_view(trace) != "0";
    if (const char* cap = std::getenv("TSPU_TRACE_CAP")) {
      const long v = std::strtol(cap, nullptr, 10);
      if (v > 0) cfg.per_item_cap = static_cast<std::size_t>(v);
    }
    return cfg;
  }();
  return cached;
}

void begin_item(std::size_t index) {
  tls.item = index;
  tls.seq = 0;
  tls.epoch_us = 0;
}

void anchor_epoch(util::Instant now) { tls.epoch_us = now.as_micros(); }

void trace_event(Layer layer, std::string_view kind, util::Instant t,
                 std::string flow, std::string detail,
                 std::string packet_hex) {
  if (!tracing()) return;
  TraceEvent ev;
  ev.t_us = t.as_micros() - tls.epoch_us;
  ev.item = tls.item;
  ev.seq = tls.seq++;
  ev.layer = layer;
  ev.kind = std::string(kind);
  ev.flow = std::move(flow);
  ev.detail = std::move(detail);
  ev.packet_hex = std::move(packet_hex);
  tls.rec->trace.push(std::move(ev));
}

RecorderScope::RecorderScope(Recorder& rec)
    : prev_rec_(tls.rec),
      prev_item_(tls.item),
      prev_seq_(tls.seq),
      prev_epoch_us_(tls.epoch_us),
      prev_mute_(tls.mute) {
  tls.rec = &rec;
  tls.mute = 0;
  tls.item = 0;
  tls.seq = 0;
  tls.epoch_us = 0;
  ++tls.gen;
}

RecorderScope::~RecorderScope() {
  tls.rec = prev_rec_;
  tls.item = prev_item_;
  tls.seq = prev_seq_;
  tls.epoch_us = prev_epoch_us_;
  tls.mute = prev_mute_;
  ++tls.gen;
}

MuteGuard::MuteGuard() { ++tls.mute; }
MuteGuard::~MuteGuard() { --tls.mute; }

void CounterRef::slow_bind() {
  // rec != nullptr was checked by the inline fast path; re-resolve the
  // counter because the thread binding changed since we last cached it.
  cached_ = &tls.rec->metrics.counter(name_);
  cached_gen_ = tls.gen;
}

Span::Span(Layer layer, std::string kind, util::Instant start,
           std::string flow)
    : layer_(layer),
      kind_(std::move(kind)),
      flow_(std::move(flow)),
      start_(start) {
  trace_event(layer_, kind_ + ".begin", start_, flow_);
}

void Span::end(util::Instant stop, std::string detail) {
  if (ended_) return;
  ended_ = true;
  const std::int64_t dur = stop.as_micros() - start_.as_micros();
  Recorder* rec = recorder();
  if (rec != nullptr) {
    rec->metrics.histogram(kind_ + ".us")
        .observe(dur < 0 ? 0 : static_cast<std::uint64_t>(dur));
  }
  std::string d = "dur_us=" + std::to_string(dur);
  if (!detail.empty()) d += " " + detail;
  trace_event(layer_, kind_ + ".end", stop, flow_, std::move(d));
}

Span::~Span() {
  // An un-ended span is closed at its own start: zero duration, visible in
  // the trace as a degenerate span rather than silently lost.
  if (!ended_) end(start_);
}

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out += hex[b >> 4];
    out += hex[b & 0xf];
  }
  return out;
}

bool hex_decode(std::string_view hex, std::string& out) {
  if (hex.size() % 2 != 0) return false;
  out.clear();
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>((hi << 4) | lo);
  }
  return true;
}

}  // namespace tspu::obs
