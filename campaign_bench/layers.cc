#include "layers.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace tspu::campaign_bench {

void SpanLog::absorb(SpanSink& sink) {
  spans_.insert(spans_.end(), sink.spans().begin(), sink.spans().end());
  sink.spans().clear();
}

std::vector<double> SpanLog::durations(const char* name, int pass) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name && (pass < 0 || s.pass == pass)) {
      out.push_back(s.seconds());
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> SpanLog::self_time(
    int pass) const {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.pass == pass && s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    if (s.pass != pass) continue;
    // Children of one span may run in parallel (the campaign's shards), so
    // subtract the union of their intervals, not the sum.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) cover.emplace_back(c->start, c->end);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    Clock::time_point reach = s.start;
    for (const auto& [from, to] : cover) {
      const Clock::time_point lo = std::max(from, reach);
      const Clock::time_point hi = std::min(to, s.end);
      if (hi > lo) covered += seconds_between(lo, hi);
      reach = std::max(reach, hi);
    }
    by_layer[s.layer] += std::max(0.0, s.seconds() - covered);
  }
  return {by_layer.begin(), by_layer.end()};
}

void SpanLog::write_jsonl(Result& res, const std::string& path,
                          Clock::time_point origin) const {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    res.fail("cannot write spans to " + path);
    return;
  }
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"name\":\"%s\",\"layer\":\"%s\",\"item\":%lld,"
                 "\"shard\":%d,\"pass\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, s.name, s.layer,
                 static_cast<long long>(s.item), s.shard, s.pass, ns(s.start),
                 ns(s.end));
  }
  if (std::fclose(out) != 0) {
    res.fail("cannot write spans to " + path);
  } else {
    res.notes.push_back("spans: " + path);
  }
}

Counts Counts::read(const obs::MetricsRegistry& metrics) {
  Counts c;
  c.sim_events = metrics.counter_value("netsim.sim_events");
  c.delivered = metrics.counter_value("netsim.delivered");
  c.device_packets = metrics.counter_value("tspu.device.packets");
  c.frag_buffered = metrics.counter_value("tspu.frag.buffered");
  c.conntrack_created = metrics.counter_value("tspu.conntrack.created");
  for (const char* trigger :
       {"tspu.trigger.sni_i", "tspu.trigger.sni_ii", "tspu.trigger.sni_iii",
        "tspu.trigger.sni_iv", "tspu.trigger.quic", "tspu.trigger.ip_based"}) {
    c.triggers += metrics.counter_value(trigger);
  }
  c.rst_rewrites = metrics.counter_value("tspu.device.rst_rewrite");
  return c;
}

namespace {

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

}  // namespace

void report_layers(Result& res, const SpanLog& log,
                   const std::vector<TracedPass>& passes,
                   const CkptFigures& ckpt, double replica_mb,
                   const DeviceCosts& device, double dominant_ns) {
  // Per-pass figures, reported as medians over passes.
  std::vector<double> busy_max, busy_mean, imbalance, overhead, efficiency,
      begin_trial_share, ns_per_event, trace_overhead, item_share;
  std::map<std::string, std::vector<double>> self_by_layer;
  for (int pass = 0; pass < static_cast<int>(passes.size()); ++pass) {
    const TracedPass& p = passes[static_cast<std::size_t>(pass)];
    const std::vector<double> shards = log.durations("shard", pass);
    const std::vector<double> campaign = log.durations("campaign", pass);
    const double items_s = sum(log.durations("measure.item", pass));
    if (!shards.empty() && !campaign.empty()) {
      const double mean = sum(shards) / static_cast<double>(shards.size());
      busy_max.push_back(max_of(shards));
      busy_mean.push_back(mean);
      imbalance.push_back(mean > 0 ? max_of(shards) / mean : 0);
      overhead.push_back(campaign.front() - max_of(shards));
      efficiency.push_back(
          sum(shards) / (static_cast<double>(shards.size()) * campaign.front()));
      begin_trial_share.push_back(
          sum(log.durations("topo.begin_trial", pass)) / sum(shards));
    }
    if (p.counts.sim_events > 0) {
      ns_per_event.push_back(items_s * 1e9 /
                             static_cast<double>(p.counts.sim_events));
    }
    if (p.untraced_items_per_s > 0) {
      trace_overhead.push_back(p.traced_items_per_s / p.untraced_items_per_s);
    }
    if (items_s > 0) {
      item_share.push_back(static_cast<double>(p.counts.device_packets) *
                           dominant_ns * 1e-9 / items_s);
    }
    for (const auto& [layer, seconds] : log.self_time(pass)) {
      self_by_layer[layer].push_back(seconds);
    }
  }

  const Counts& c = passes.front().counts;
  const double items = static_cast<double>(passes.front().items);
  auto per_item = [&](std::uint64_t count) {
    return items > 0 ? static_cast<double>(count) / items : 0;
  };
  const std::vector<double> item_us = [&] {
    std::vector<double> us = log.durations("measure.item");
    for (double& v : us) v *= 1e6;
    return us;
  }();
  std::vector<double> begin_trial_us = log.durations("topo.begin_trial");
  for (double& v : begin_trial_us) v *= 1e6;

  res.metric("topo.build_s", median(log.durations("topo.build")), "s");
  res.metric("topo.replica_mb", replica_mb, "MB");
  res.metric("topo.begin_trial_us.p50", median(begin_trial_us), "us");
  res.metric("topo.begin_trial_share", median(begin_trial_share), "ratio");
  res.metric("runner.shard_busy_s.max", median(busy_max), "s");
  res.metric("runner.shard_busy_s.mean", median(busy_mean), "s");
  res.metric("runner.imbalance", median(imbalance), "ratio");
  res.metric("runner.overhead_s", median(overhead), "s");
  res.metric("runner.efficiency", median(efficiency), "ratio");
  res.metric("ckpt.snapshots", static_cast<double>(ckpt.snapshots), "count");
  res.metric("ckpt.snapshot_bytes", static_cast<double>(ckpt.snapshot_bytes),
             "bytes");
  res.metric("ckpt.overhead_s", median(ckpt.overhead_s), "s");
  res.metric("measure.item_us.p50", median(item_us), "us");
  res.metric("measure.item_us.p99", quantile(item_us, 0.99), "us");
  res.metric("netsim.events_per_item", per_item(c.sim_events), "events/item");
  res.metric("netsim.delivered_per_item", per_item(c.delivered), "pkts/item");
  res.metric("netsim.ns_per_event", median(ns_per_event), "ns");
  res.metric("tspu.packets_per_item", per_item(c.device_packets), "pkts/item");
  res.metric("tspu.frag_buffered_per_item", per_item(c.frag_buffered),
             "frags/item");
  res.metric("tspu.ns_per_packet.frag", device.frag_ns, "ns");
  res.metric("tspu.conntrack_created_per_item", per_item(c.conntrack_created),
             "flows/item");
  res.metric("tspu.triggers_per_item", per_item(c.triggers), "count/item");
  res.metric("tspu.rst_rewrites_per_item", per_item(c.rst_rewrites),
             "count/item");
  res.metric("tspu.ns_per_packet.tls", device.tls_ns, "ns");
  res.metric("tspu.item_share_est", median(item_share), "ratio");
  for (const char* layer : {"runner", "topo", "measure"}) {
    const auto it = self_by_layer.find(layer);
    res.metric(std::string("self_s.") + layer,
               it == self_by_layer.end() ? 0 : median(it->second), "s");
  }
  res.metric("obs.trace_overhead", median(trace_overhead), "ratio");

  // Self-time summary: where one traced pass spent its wall time, per
  // layer, summed over shards (parallel shards can add up to more than the
  // pass's wall time).
  double total = 0;
  for (const auto& [layer, seconds] : self_by_layer) total += median(seconds);
  char line[160];
  res.notes.push_back("self time per traced pass (median of " +
                      std::to_string(passes.size()) + " passes):");
  for (const auto& [layer, seconds] : self_by_layer) {
    const double s = median(seconds);
    std::snprintf(line, sizeof(line), "  %-8s %9.4f s  %5.1f%%", layer.c_str(),
                  s, total > 0 ? 100 * s / total : 0);
    res.notes.push_back(line);
  }
  std::snprintf(line, sizeof(line),
                "  of measure: tspu device ~%.1f%% (%.1f pkts/item x %.0f ns), "
                "the rest netsim, hosts and probe logic",
                100 * median(item_share), per_item(c.device_packets),
                dominant_ns);
  res.notes.push_back(line);
}

}  // namespace tspu::campaign_bench
