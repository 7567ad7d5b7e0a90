#include "measure/scan.h"

#include <memory>
#include <utility>

#include "measure/common.h"
#include "obs/obs.h"
#include "runner/runner.h"

namespace tspu::measure {

double ScanSummary::within_hops_share(int n) const {
  int total = 0, within = 0;
  for (const auto& [hops, count] : hops_histogram) {
    total += count;
    if (hops <= n) within += count;
  }
  return total == 0 ? 0.0 : static_cast<double>(within) / total;
}

namespace {

/// The router pair straddling the located device, read off a traceroute
/// (zero-valued side = the destination leaf itself).
std::pair<std::uint32_t, std::uint32_t> link_from_route(
    const TracerouteResult& route, int min_working_ttl) {
  const int before_idx = min_working_ttl - 2;  // 0-based router list
  const int after_idx = before_idx + 1;
  auto hop_at = [&](int idx) {
    return idx >= 0 && idx < static_cast<int>(route.hops.size())
               ? route.hops[idx].value()
               : 0u;
  };
  return {hop_at(before_idx), hop_at(after_idx)};
}

/// Indices into endpoints() selected by filter, spread-sampling, stride,
/// and cap — pure bookkeeping, so it is identical on every run.
std::vector<std::size_t> select_endpoints(
    const std::vector<topo::Endpoint>& endpoints,
    const ParallelScanConfig& config) {
  std::vector<std::size_t> filtered;
  filtered.reserve(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (!config.filter || config.filter(endpoints[i])) filtered.push_back(i);
  }
  std::size_t stride = std::max<std::size_t>(1, config.stride);
  std::size_t cap = config.max_endpoints;
  if (config.spread_sample > 0) {
    stride = std::max<std::size_t>(
        stride, filtered.size() / std::max<std::size_t>(1, config.spread_sample));
    cap = cap == 0 ? config.spread_sample
                   : std::min(cap, config.spread_sample);
  }
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < filtered.size(); i += stride) {
    if (cap != 0 && selected.size() >= cap) break;
    selected.push_back(filtered[i]);
  }
  return selected;
}

ScanRecord probe_one(topo::NationalTopology& topo, std::size_t endpoint_index,
                     std::uint64_t seed, const ParallelScanConfig& config) {
  topo.begin_trial(seed);
  reset_fresh_port();
  const topo::Endpoint& ep = topo.endpoints()[endpoint_index];
  TSPU_OBS_COUNT("measure.scan.probes");
  obs::Span span(obs::Layer::kMeasure, "scan.endpoint", topo.net().now(),
                 ep.addr.str() + ":" + std::to_string(ep.port));

  ScanRecord rec;
  rec.endpoint_index = endpoint_index;
  rec.addr = ep.addr;
  rec.port = ep.port;
  rec.as_index = ep.as_index;
  rec.device_label = ep.device_label;
  rec.echo_server = ep.echo_server;
  rec.truth_downstream_visible = ep.tspu_downstream_visible;
  rec.truth_upstream_visible = ep.tspu_upstream_visible;
  rec.truth_hops = ep.tspu_hops_from_endpoint;

  const RetryPolicy* retry = config.retry ? &config.retry_policy : nullptr;
  if (config.fingerprint) {
    rec.fingerprinted = true;
    if (retry != nullptr) {
      const FragFingerprintVerdict fv = probe_fragment_limit_retry(
          topo.net(), topo.prober(), ep.addr, ep.port, *retry);
      rec.fingerprint = fv.as_result();
      rec.retried = true;
      rec.verdict = fv.verdict;
      rec.verdict_tspu = fv.tspu_like;
      rec.attempts = fv.attempts;
    } else {
      rec.fingerprint =
          probe_fragment_limit(topo.net(), topo.prober(), ep.addr, ep.port);
    }
  }
  const bool localize =
      config.localize &&
      (!config.fingerprint || !config.localize_only_positive ||
       rec.tspu_like());
  if (localize) {
    rec.location = locate_by_fragments(topo.net(), topo.prober(), ep.addr,
                                       ep.port, /*max_ttl=*/24, retry);
    if (config.trace_links && rec.location->min_working_ttl &&
        rec.location->device_hops_from_destination) {
      const auto route = tcp_traceroute(topo.net(), topo.prober(), ep.addr,
                                        ep.port, /*max_ttl=*/24, retry);
      rec.tspu_link = link_from_route(route, *rec.location->min_working_ttl);
    }
  }
  if (rec.tspu_like()) TSPU_OBS_COUNT("measure.scan.positive");
  span.end(topo.net().now(), rec.tspu_like() ? "tspu" : "clean");
  return rec;
}

/// Folds per-endpoint records into the campaign summary.
ParallelScanOutcome aggregate_records(std::vector<ScanRecord> records) {
  ParallelScanOutcome out;
  for (const ScanRecord& rec : records) {
    ScanSummary& s = out.summary;
    ++s.endpoints_probed;
    s.ases_probed.insert(rec.as_index);
    auto& [probed, positive] = s.by_port[rec.port];
    ++probed;
    if (rec.retried) {
      switch (rec.verdict) {
        case Verdict::kConfirmed: ++s.confirmed; break;
        case Verdict::kInconclusive: ++s.inconclusive; break;
        case Verdict::kUnreachable: ++s.unreachable; break;
      }
    }
    if (rec.tspu_like()) {
      ++s.tspu_positive;
      ++positive;
      s.ases_positive.insert(rec.as_index);
    }
    if (rec.location && rec.location->device_hops_from_destination) {
      ++s.hops_histogram[*rec.location->device_hops_from_destination];
    }
    if (rec.tspu_link) s.tspu_links.insert(*rec.tspu_link);
  }
  out.records = std::move(records);
  return out;
}

}  // namespace

ParallelScanOutcome parallel_scan(const topo::NationalConfig& topo_config,
                                  const ParallelScanConfig& config, int jobs) {
  return parallel_scan_checkpointed(topo_config, config, {}, jobs);
}

void encode_scan_record(const ScanRecord& rec, util::StateWriter& w) {
  w.u64(rec.endpoint_index);
  w.u32(rec.addr.value());
  w.u16(rec.port);
  w.i64(rec.as_index);
  w.str(rec.device_label);
  w.boolean(rec.echo_server);
  w.boolean(rec.truth_downstream_visible);
  w.boolean(rec.truth_upstream_visible);
  w.i64(rec.truth_hops);
  w.boolean(rec.fingerprinted);
  w.boolean(rec.fingerprint.responded_intact);
  w.boolean(rec.fingerprint.responded_45);
  w.boolean(rec.fingerprint.responded_46);
  w.boolean(rec.location.has_value());
  if (rec.location) {
    w.boolean(rec.location->min_working_ttl.has_value());
    if (rec.location->min_working_ttl) w.i64(*rec.location->min_working_ttl);
    w.i64(rec.location->path_hops);
    w.boolean(rec.location->device_hops_from_destination.has_value());
    if (rec.location->device_hops_from_destination) {
      w.i64(*rec.location->device_hops_from_destination);
    }
  }
  w.boolean(rec.tspu_link.has_value());
  if (rec.tspu_link) {
    w.u32(rec.tspu_link->first);
    w.u32(rec.tspu_link->second);
  }
  w.boolean(rec.retried);
  w.u8(static_cast<std::uint8_t>(rec.verdict));
  w.boolean(rec.verdict_tspu);
  w.i64(rec.attempts);
}

bool decode_scan_record(ScanRecord& rec, util::StateReader& r) {
  std::uint64_t endpoint_index = 0;
  std::uint32_t addr = 0;
  std::int64_t as_index = 0, truth_hops = 0;
  if (!r.u64(endpoint_index) || !r.u32(addr) || !r.u16(rec.port) ||
      !r.i64(as_index) || !r.str(rec.device_label) ||
      !r.boolean(rec.echo_server) ||
      !r.boolean(rec.truth_downstream_visible) ||
      !r.boolean(rec.truth_upstream_visible) || !r.i64(truth_hops) ||
      !r.boolean(rec.fingerprinted) ||
      !r.boolean(rec.fingerprint.responded_intact) ||
      !r.boolean(rec.fingerprint.responded_45) ||
      !r.boolean(rec.fingerprint.responded_46)) {
    return false;
  }
  rec.endpoint_index = static_cast<std::size_t>(endpoint_index);
  rec.addr = util::Ipv4Addr(addr);
  rec.as_index = static_cast<int>(as_index);
  rec.truth_hops = static_cast<int>(truth_hops);
  bool has_location = false;
  if (!r.boolean(has_location)) return false;
  rec.location.reset();
  if (has_location) {
    FragLocalizeResult loc;
    bool has_min = false;
    if (!r.boolean(has_min)) return false;
    if (has_min) {
      std::int64_t v = 0;
      if (!r.i64(v)) return false;
      loc.min_working_ttl = static_cast<int>(v);
    }
    std::int64_t path_hops = 0;
    bool has_device_hops = false;
    if (!r.i64(path_hops) || !r.boolean(has_device_hops)) return false;
    loc.path_hops = static_cast<int>(path_hops);
    if (has_device_hops) {
      std::int64_t v = 0;
      if (!r.i64(v)) return false;
      loc.device_hops_from_destination = static_cast<int>(v);
    }
    rec.location = loc;
  }
  bool has_link = false;
  if (!r.boolean(has_link)) return false;
  rec.tspu_link.reset();
  if (has_link) {
    std::uint32_t a = 0, b = 0;
    if (!r.u32(a) || !r.u32(b)) return false;
    rec.tspu_link = std::make_pair(a, b);
  }
  std::uint8_t verdict = 0;
  std::int64_t attempts = 0;
  if (!r.boolean(rec.retried) || !r.u8(verdict) ||
      !r.boolean(rec.verdict_tspu) || !r.i64(attempts)) {
    return false;
  }
  if (verdict > static_cast<std::uint8_t>(Verdict::kUnreachable)) {
    return false;
  }
  rec.verdict = static_cast<Verdict>(verdict);
  rec.attempts = static_cast<int>(attempts);
  return true;
}

std::uint64_t parallel_scan_identity(const topo::NationalConfig& topo_config,
                                     const ParallelScanConfig& config) {
  util::StateWriter w;
  w.str("parallel_scan.v1");
  w.u64(topo_config.seed);
  w.u64(topo_config.n_ases);
  w.f64(topo_config.endpoint_scale);
  w.u64(topo_config.echo_servers);
  w.u64(config.seed);
  w.boolean(config.fingerprint);
  w.boolean(config.localize);
  w.boolean(config.localize_only_positive);
  w.boolean(config.trace_links);
  w.u64(config.spread_sample);
  w.u64(config.stride);
  w.u64(config.max_endpoints);
  w.boolean(config.retry);
  w.i64(config.retry_policy.max_attempts);
  w.i64(config.retry_policy.min_agree);
  return util::fnv1a64(w.data());
}

ParallelScanOutcome parallel_scan_checkpointed(
    const topo::NationalConfig& topo_config, const ParallelScanConfig& config,
    const runner::CheckpointOptions& ckpt, int jobs) {
  // One replica is needed up front to enumerate endpoints; shard 0 adopts it
  // instead of rebuilding. Construction is muted like the runner's own
  // make_ctx calls: how many replicas get built depends on the job count.
  std::unique_ptr<topo::NationalTopology> scout;
  {
    obs::MuteGuard mute;
    scout = std::make_unique<topo::NationalTopology>(topo_config);
  }
  const std::vector<std::size_t> selected =
      select_endpoints(scout->endpoints(), config);

  struct ScanCodec {
    std::uint64_t id;
    std::uint64_t identity() const { return id; }
    void encode(const ScanRecord& rec, util::StateWriter& w) const {
      encode_scan_record(rec, w);
    }
    bool decode(ScanRecord& rec, util::StateReader& r) const {
      return decode_scan_record(rec, r);
    }
  };

  std::vector<ScanRecord> records = runner::checkpointed_map(
      selected.size(), jobs,
      [&scout, &topo_config](int shard) {
        return shard == 0 && scout
                   ? std::move(scout)
                   : std::make_unique<topo::NationalTopology>(topo_config);
      },
      [&selected, &config](std::unique_ptr<topo::NationalTopology>& topo,
                           std::size_t i) {
        return probe_one(*topo, selected[i],
                         runner::item_seed(config.seed, i), config);
      },
      ScanCodec{parallel_scan_identity(topo_config, config)}, ckpt);

  return aggregate_records(std::move(records));
}

}  // namespace tspu::measure
