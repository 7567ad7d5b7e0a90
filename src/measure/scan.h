// The §7.2/§7.3 remote-measurement campaign: fingerprint sweep,
// per-positive localization, traceroute-based TSPU-link clustering, and
// per-port aggregation. This is what the fig9/fig10/fig12 benches, the
// national_scan example, and `tspucli scan` drive.
//
// Every endpoint probe is an independent simulation, so the runner gives
// each worker thread its own NationalTopology replica (same config, same
// seed => identical world) and isolates consecutive probes with
// begin_trial(). Results are merged in endpoint order, making the outcome
// bit-identical for any job count.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "measure/frag_probe.h"
#include "measure/traceroute.h"
#include "runner/checkpoint.h"
#include "topo/national.h"

namespace tspu::measure {

struct ScanSummary {
  std::size_t endpoints_probed = 0;
  std::size_t tspu_positive = 0;
  /// Verdict breakdown; nonzero only for retry-mode scans. `tspu_positive`
  /// then counts kConfirmed TSPU-like endpoints only.
  std::size_t confirmed = 0;
  std::size_t inconclusive = 0;
  std::size_t unreachable = 0;
  std::set<int> ases_probed;
  std::set<int> ases_positive;
  /// port -> (probed, positive)
  std::map<std::uint16_t, std::pair<int, int>> by_port;
  /// device distance from destination -> count (Figure 12)
  std::map<int, int> hops_histogram;
  /// distinct TSPU links discovered (Figure 10)
  std::set<std::pair<std::uint32_t, std::uint32_t>> tspu_links;

  double positive_share() const {
    return endpoints_probed == 0
               ? 0.0
               : static_cast<double>(tspu_positive) / endpoints_probed;
  }
  /// Share of localized devices within `n` hops of the destination.
  double within_hops_share(int n) const;
};

/// One endpoint's probe outcome with the endpoint's identity and ground
/// truth copied out of the replica (the replicas are destroyed when
/// parallel_scan returns, so records must not point into them).
struct ScanRecord {
  std::size_t endpoint_index = 0;  ///< into NationalTopology::endpoints()
  util::Ipv4Addr addr;
  std::uint16_t port = 0;
  int as_index = -1;
  std::string device_label;
  bool echo_server = false;
  bool truth_downstream_visible = false;
  bool truth_upstream_visible = false;
  int truth_hops = -1;

  bool fingerprinted = false;
  FragLimitResult fingerprint;
  std::optional<FragLocalizeResult> location;
  std::optional<std::pair<std::uint32_t, std::uint32_t>> tspu_link;

  /// Retry-mode fields (meaningful only when `retried`): the aggregated
  /// fingerprint verdict, whether its observation matched the TSPU
  /// signature, and total probe attempts spent.
  bool retried = false;
  Verdict verdict = Verdict::kUnreachable;
  bool verdict_tspu = false;
  int attempts = 0;

  /// Retry mode promotes only kConfirmed TSPU signatures to positive;
  /// kInconclusive endpoints are counted separately, never as positives.
  bool tspu_like() const {
    if (retried) return verdict == Verdict::kConfirmed && verdict_tspu;
    return fingerprinted && fingerprint.tspu_like();
  }
};

struct ParallelScanConfig {
  /// Run the 45/46 fragment fingerprint on each selected endpoint.
  bool fingerprint = true;
  /// Run frag-TTL localization.
  bool localize = false;
  /// With fingerprinting on, localize only fingerprint-positive endpoints.
  bool localize_only_positive = true;
  /// Also traceroute localized endpoints to name the TSPU link pair.
  bool trace_links = false;

  /// Selects which endpoints participate (empty = all).
  std::function<bool(const topo::Endpoint&)> filter;
  /// If nonzero, probe about this many endpoints spread evenly across the
  /// filtered list (the Figure-10 sampling strategy).
  std::size_t spread_sample = 0;
  /// Probe only every k-th filtered endpoint.
  std::size_t stride = 1;
  /// Cap on endpoints probed (0 = all).
  std::size_t max_endpoints = 0;

  /// Root seed for per-item isolation (forked per endpoint).
  std::uint64_t seed = 0x5ca9;

  /// Retry + majority-vote every probe primitive under retry_policy. Records
  /// gain verdicts ({Confirmed, Inconclusive, Unreachable}) and the summary
  /// a verdict breakdown; positives are then kConfirmed-only.
  bool retry = false;
  RetryPolicy retry_policy;
};

struct ParallelScanOutcome {
  ScanSummary summary;
  std::vector<ScanRecord> records;  ///< in selection order
};

/// Builds one NationalTopology replica per worker thread from `topo_config`
/// and probes the selected endpoints, round-robin across shards, with
/// begin_trial() isolation between probes. jobs <= 0 selects hardware
/// concurrency. The outcome is bit-identical for every jobs value. Same as
/// parallel_scan_checkpointed with a default CheckpointOptions (no snapshot
/// I/O).
ParallelScanOutcome parallel_scan(const topo::NationalConfig& topo_config,
                                  const ParallelScanConfig& config = {},
                                  int jobs = 0);

/// parallel_scan with checkpoint/resume (runner/checkpoint.h): snapshots
/// the campaign to ckpt.path at every wave barrier and, on ckpt.resume,
/// reloads completed records and per-shard recorder state, then finishes
/// on fresh replicas. Final records, metrics JSON, and trace JSONL are
/// byte-identical to an uninterrupted run at any job count. Throws
/// runner::CampaignInterrupted on SIGTERM or the abort_after_items hook,
/// after writing the snapshot.
ParallelScanOutcome parallel_scan_checkpointed(
    const topo::NationalConfig& topo_config, const ParallelScanConfig& config,
    const runner::CheckpointOptions& ckpt, int jobs = 0);

/// ScanRecord <-> snapshot blob codec, exposed for the round-trip property
/// tests and ckpt2txt. encode(decode(b)) reproduces b byte-for-byte.
void encode_scan_record(const ScanRecord& rec, util::StateWriter& w);
bool decode_scan_record(ScanRecord& rec, util::StateReader& r);

/// Campaign identity digest guarding resume against a different scan
/// (folds the topology seed/scale and the scan selection knobs; the
/// `filter` callback cannot be hashed and is excluded — callers resuming a
/// filtered scan must pass the same filter).
std::uint64_t parallel_scan_identity(const topo::NationalConfig& topo_config,
                                     const ParallelScanConfig& config);

}  // namespace tspu::measure
