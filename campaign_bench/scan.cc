// The national_scan workload: the Figure 9 + Figure 12 pipeline (45/46
// fragment fingerprint, then frag-TTL localization of the positives) over a
// spread sample of a NationalTopology, through measure::parallel_scan. It is
// a closed-loop batch campaign: each of `jobs` shards starts its next
// endpoint when the previous one finishes.
//
// The traced run also runs the same campaign through
// measure::parallel_scan_checkpointed, for the checkpoint layer's figures
// and the durability check (its records must equal the plain campaign's).
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "layers.h"
#include "measure/common.h"
#include "measure/frag_probe.h"
#include "measure/scan.h"
#include "obs/obs.h"
#include "runner/checkpoint.h"
#include "runner/runner.h"
#include "topo/national.h"

namespace tspu::campaign_bench {
namespace {

constexpr std::uint64_t kWorldStream = 1;
constexpr std::uint64_t kItemStream = 2;
/// Two shards, not one per vCPU: the runner's static i % K split makes a
/// campaign wait for its slowest shard, so one busy neighbour vCPU would
/// stretch the whole run.
constexpr int kJobs = 2;

struct ScanShape {
  std::size_t n_ases;
  double endpoint_scale;
  std::size_t items;
};

ScanShape scan_shape(bool tiny) {
  return tiny ? ScanShape{40, 0.002, 240} : ScanShape{400, 0.02, 16000};
}

topo::NationalConfig world_config(const Options& opt) {
  const ScanShape shape = scan_shape(opt.tiny);
  topo::NationalConfig cfg;
  cfg.n_ases = shape.n_ases;
  cfg.endpoint_scale = shape.endpoint_scale;
  cfg.seed = fork_seed(opt.seed, kWorldStream);
  return cfg;
}

measure::ParallelScanConfig campaign_config(const Options& opt) {
  measure::ParallelScanConfig scan;
  scan.fingerprint = true;
  scan.localize = true;
  scan.localize_only_positive = true;
  scan.spread_sample = scan_shape(opt.tiny).items;
  scan.seed = fork_seed(opt.seed, kItemStream);
  return scan;
}

/// Ground truth check: the fingerprint must match the endpoint's
/// downstream-visible device, and a positive must localize it at the right
/// hop distance.
bool agrees_with_truth(const measure::ScanRecord& r) {
  if (r.tspu_like() != r.truth_downstream_visible) return false;
  if (!r.tspu_like()) return true;
  return r.location && r.location->device_hops_from_destination &&
         *r.location->device_hops_from_destination == r.truth_hops;
}

void encode(Encoder& e, const measure::ScanRecord& r) {
  e.u64(r.endpoint_index);
  e.u64(r.addr.value());
  e.u64(r.port);
  e.i64(r.as_index);
  e.str(r.device_label);
  e.boolean(r.echo_server);
  e.boolean(r.truth_downstream_visible);
  e.boolean(r.truth_upstream_visible);
  e.i64(r.truth_hops);
  e.boolean(r.fingerprinted);
  e.boolean(r.fingerprint.responded_intact);
  e.boolean(r.fingerprint.responded_45);
  e.boolean(r.fingerprint.responded_46);
  e.boolean(r.location.has_value());
  if (r.location) {
    e.i64(r.location->min_working_ttl.value_or(-1));
    e.i64(r.location->path_hops);
    e.i64(r.location->device_hops_from_destination.value_or(-1));
  }
  e.boolean(r.tspu_link.has_value());
  if (r.tspu_link) {
    e.u64(r.tspu_link->first);
    e.u64(r.tspu_link->second);
  }
  e.boolean(r.retried);
  e.u64(static_cast<std::uint64_t>(r.verdict));
  e.boolean(r.verdict_tspu);
  e.i64(r.attempts);
}

Encoder encode_all(const std::vector<measure::ScanRecord>& records) {
  Encoder e;
  for (const measure::ScanRecord& r : records) encode(e, r);
  return e;
}

/// Index of the first record whose encoding differs, or -1.
long first_difference(const std::vector<measure::ScanRecord>& a,
                      const std::vector<measure::ScanRecord>& b) {
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size()) return static_cast<long>(i);
    Encoder ea, eb;
    encode(ea, a[i]);
    encode(eb, b[i]);
    if (ea.bytes() != eb.bytes()) return static_cast<long>(i);
  }
  return -1;
}

/// Counts records that contradict ground truth.
std::uint64_t count_failed(const std::vector<measure::ScanRecord>& records) {
  std::uint64_t failed = 0;
  for (const measure::ScanRecord& r : records) {
    if (!agrees_with_truth(r)) ++failed;
  }
  return failed;
}

/// One call of the public campaign API.
struct Campaign {
  double wall_s = 0;   ///< the whole call
  double setup_s = 0;  ///< call start until the world exists
  double items_s = 0;  ///< world built until the call returns
  std::vector<measure::ScanRecord> records;
};

Campaign run_campaign(const Options& opt, bool checkpointed,
                      const std::string& snapshot) {
  measure::ParallelScanConfig scan = campaign_config(opt);
  // The campaign builds its world, then selects endpoints through the
  // filter: the first filter call marks the end of set-up.
  std::optional<Clock::time_point> selecting;
  scan.filter = [&selecting](const topo::Endpoint&) {
    if (!selecting) selecting = Clock::now();
    return true;
  };
  const Clock::time_point start = Clock::now();
  measure::ParallelScanOutcome outcome;
  if (checkpointed) {
    runner::CheckpointOptions ckpt;  // the library's default cadence
    ckpt.path = snapshot;
    outcome = measure::parallel_scan_checkpointed(world_config(opt), scan,
                                                  ckpt, kJobs);
  } else {
    outcome = measure::parallel_scan(world_config(opt), scan, kJobs);
  }
  const Clock::time_point end = Clock::now();
  if (!selecting) throw std::runtime_error("campaign selected no endpoints");
  Campaign c;
  c.wall_s = seconds_between(start, end);
  c.setup_s = seconds_between(start, *selecting);
  c.items_s = seconds_between(*selecting, end);
  c.records = std::move(outcome.records);
  return c;
}

/// Removes a snapshot file (and its tmp sibling) when the run ends.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {}
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Counts snapshots while a checkpointed campaign runs: every checkpoint
/// write ends in a rename onto the snapshot path, which inotify reports as
/// IN_MOVED_TO. A reader thread drains the events as they arrive, because
/// the kernel merges queued events that are still unread.
class SnapshotWatch {
 public:
  explicit SnapshotWatch(const std::string& snapshot_path)
      : name_(std::filesystem::path(snapshot_path).filename().string()),
        fd_(inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
    const std::string dir =
        std::filesystem::path(snapshot_path).parent_path().string();
    if (fd_ < 0 ||
        inotify_add_watch(fd_, dir.empty() ? "." : dir.c_str(), IN_MOVED_TO) <
            0) {
      if (fd_ >= 0) close(fd_);
      throw std::runtime_error("cannot watch the snapshot directory");
    }
    reader_ = std::thread([this] { read_loop(); });
  }
  ~SnapshotWatch() {
    stop();
    close(fd_);
  }
  SnapshotWatch(const SnapshotWatch&) = delete;
  SnapshotWatch& operator=(const SnapshotWatch&) = delete;

  /// Stops watching; returns the snapshots renamed into place meanwhile.
  std::uint64_t stop() {
    if (reader_.joinable()) {
      stopping_ = true;
      reader_.join();
    }
    return renames_;
  }

 private:
  void read_loop() {
    pollfd pfd{fd_, POLLIN, 0};
    bool last_round = false;
    while (!last_round) {
      last_round = stopping_;
      poll(&pfd, 1, 10);
      alignas(inotify_event) char buf[16 * 1024];
      for (ssize_t n; (n = read(fd_, buf, sizeof(buf))) > 0;) {
        for (ssize_t off = 0; off < n;) {
          const auto* ev = reinterpret_cast<const inotify_event*>(buf + off);
          if (ev->len > 0 && name_ == ev->name) ++renames_;
          off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
        }
      }
    }
  }

  std::string name_;
  int fd_;
  std::atomic<bool> stopping_{false};
  std::uint64_t renames_ = 0;  ///< reader thread only until joined
  std::thread reader_;         ///< last: starts after the members it uses
};

/// The probe the campaign runs per endpoint, through the public per-item
/// calls: fingerprint, then frag-TTL localization of a positive.
measure::ScanRecord probe(topo::NationalTopology& world, std::size_t index) {
  const topo::Endpoint& ep = world.endpoints()[index];
  measure::ScanRecord rec;
  rec.endpoint_index = index;
  rec.addr = ep.addr;
  rec.port = ep.port;
  rec.as_index = ep.as_index;
  rec.device_label = ep.device_label;
  rec.echo_server = ep.echo_server;
  rec.truth_downstream_visible = ep.tspu_downstream_visible;
  rec.truth_upstream_visible = ep.tspu_upstream_visible;
  rec.truth_hops = ep.tspu_hops_from_endpoint;
  rec.fingerprinted = true;
  rec.fingerprint = measure::probe_fragment_limit(world.net(), world.prober(),
                                                  ep.addr, ep.port);
  if (rec.tspu_like()) {
    rec.location = measure::locate_by_fragments(world.net(), world.prober(),
                                                ep.addr, ep.port);
  }
  return rec;
}

struct Redrive {
  double wall_s = 0;
  std::vector<measure::ScanRecord> records;
};

/// Re-drives the campaign's items through runner::shard_map around the
/// public per-item calls, with spans: parallel_scan hides its per-item
/// calls, so this is how the traced run sees inside a campaign. `plan` is
/// the untraced campaign's records (their endpoints, in selection order).
Redrive redrive(const Options& opt, const std::vector<measure::ScanRecord>& plan,
                int pass, SpanLog& log) {
  const topo::NationalConfig world = world_config(opt);
  const std::uint64_t root = campaign_config(opt).seed;
  const std::size_t n = plan.size();
  const auto shards = std::min<std::size_t>(static_cast<std::size_t>(kJobs), n);

  std::vector<SpanSink> sinks;
  for (std::size_t s = 0; s < shards; ++s) {
    sinks.emplace_back(pass, static_cast<int>(s));
  }
  SpanSink caller(pass, -1);
  const std::uint64_t campaign_id = caller.next_id();

  struct Ctx {
    std::unique_ptr<topo::NationalTopology> world;
    SpanSink* sink = nullptr;
    std::uint64_t shard_id = 0;
    Clock::time_point shard_start;
  };
  const Clock::time_point start = Clock::now();
  std::vector<measure::ScanRecord> records = runner::shard_map(
      n, kJobs,
      [&](int shard) {
        Ctx ctx;
        ctx.sink = &sinks[static_cast<std::size_t>(shard)];
        ctx.shard_id = ctx.sink->next_id();
        ctx.shard_start = Clock::now();
        ctx.world = ctx.sink->timed(ctx.shard_id, "topo.build", "topo", -1, [&] {
          return std::make_unique<topo::NationalTopology>(world);
        });
        return ctx;
      },
      [&](Ctx& ctx, std::size_t i) {
        const auto item = static_cast<std::int64_t>(i);
        ctx.sink->timed(ctx.shard_id, "topo.begin_trial", "topo", item, [&] {
          ctx.world->begin_trial(runner::item_seed(root, i));
          measure::reset_fresh_port();
        });
        measure::ScanRecord rec = ctx.sink->timed(
            ctx.shard_id, "measure.item", "measure", item,
            [&] { return probe(*ctx.world, plan[i].endpoint_index); });
        if (i + shards >= n) {  // this shard's last item
          ctx.sink->add(ctx.shard_id, campaign_id, "shard", "runner", -1,
                        ctx.shard_start, Clock::now());
        }
        return rec;
      });
  const Clock::time_point end = Clock::now();
  caller.add(campaign_id, 0, "campaign", "runner", -1, start, end);
  for (SpanSink& sink : sinks) log.absorb(sink);
  log.absorb(caller);
  return {seconds_between(start, end), std::move(records)};
}

Result untraced(const Options& opt) {
  Result res;
  // Bound like every repo bench: counters on, event tracing off.
  obs::Recorder recorder{obs::TraceConfig{}};
  obs::RecorderScope scope(recorder);

  std::vector<double> setup_s, items_per_s;
  std::vector<measure::ScanRecord> kept;  ///< the first campaign's records
  RoundClock clock(opt.seconds, 3);
  while (clock.another()) {
    Campaign c;
    try {
      c = run_campaign(opt, false, "");
    } catch (const std::exception& e) {
      res.attempted += scan_shape(opt.tiny).items;
      res.failed += scan_shape(opt.tiny).items;
      res.fail(std::string("campaign threw: ") + e.what());
      break;
    }
    res.attempted += c.records.size();
    res.failed += count_failed(c.records);
    setup_s.push_back(c.setup_s);
    items_per_s.push_back(static_cast<double>(c.records.size()) / c.items_s);
    if (clock.rounds() == 1) {
      kept = std::move(c.records);
    } else if (const long diff = first_difference(kept, c.records);
               diff >= 0) {
      res.fail("repetition " + std::to_string(clock.rounds()) +
               " differs from the first at item " + std::to_string(diff));
    }
  }
  const double rss = peak_rss_mb();
  if (!kept.empty()) {
    check_recorded_digest(res, "national_scan", opt, encode_all(kept).digest());
  }
  res.notes.push_back(std::to_string(clock.rounds()) + " campaigns of " +
                      std::to_string(kept.size()) + " endpoints at jobs=" +
                      std::to_string(kJobs));
  // parallel_scan hides its per-item calls, so the scan is timed per
  // campaign. A campaign is ~1 s on two threads and waits for the slower
  // one, so a fast campaign needs both vCPUs quiet at once: the fastest
  // campaign spreads more over runs than the median does.
  report_end_to_end(res, median(items_per_s), items_per_s, setup_s, rss);
  return res;
}

Result traced(const Options& opt) {
  Result res;
  const Clock::time_point origin = Clock::now();

  // Replica footprint, first thing in a fresh process so freed memory from
  // earlier work cannot be reused.
  double replica_mb = 0;
  core::PolicyPtr policy;
  {
    const double before = current_rss_mb();
    topo::NationalTopology world(world_config(opt));
    replica_mb = current_rss_mb() - before;
    policy = world.policy();
  }

  const ScratchFile snapshot(opt.work_dir + "/national_scan.ckpt");

  SpanLog log;
  std::vector<TracedPass> passes;
  CkptFigures ckpt;
  RoundClock clock(opt.seconds, 1);
  while (clock.another()) {
    const int pass = clock.rounds() - 1;
    TracedPass p;
    obs::Recorder untraced_rec{obs::TraceConfig{}};
    Campaign plain;
    {
      obs::RecorderScope scope(untraced_rec);
      plain = run_campaign(opt, false, "");
    }
    p.items = plain.records.size();
    p.untraced_items_per_s = static_cast<double>(p.items) / plain.items_s;
    p.counts = Counts::read(untraced_rec.metrics);
    res.attempted += p.items;
    res.failed += count_failed(plain.records);

    // The same campaign checkpointed at the library's default cadence. The
    // durability contract on a paper-shaped campaign: its records equal the
    // plain campaign's byte for byte.
    obs::Recorder ckpt_rec{obs::TraceConfig{}};
    Campaign ck;
    {
      obs::RecorderScope scope(ckpt_rec);
      SnapshotWatch watch(snapshot.path());
      ck = run_campaign(opt, true, snapshot.path());
      ckpt.snapshots = watch.stop();
    }
    ckpt.snapshot_bytes = std::filesystem::exists(snapshot.path())
                              ? std::filesystem::file_size(snapshot.path())
                              : 0;
    ckpt.overhead_s.push_back(ck.wall_s - plain.wall_s);
    res.attempted += ck.records.size();
    res.failed += count_failed(ck.records);
    if (const long diff = first_difference(ck.records, plain.records);
        diff >= 0) {
      res.fail("checkpointed records differ from plain at item " +
               std::to_string(diff));
    }
    if (!(Counts::read(ckpt_rec.metrics) == p.counts)) {
      res.fail("checkpointed campaign counters differ from plain");
    }

    obs::Recorder traced_rec{obs::TraceConfig{}};
    Redrive again;
    {
      obs::RecorderScope scope(traced_rec);
      again = redrive(opt, plain.records, pass, log);
    }
    p.traced_items_per_s = static_cast<double>(p.items) / again.wall_s;
    res.attempted += again.records.size();
    res.failed += count_failed(again.records);
    if (const long diff = first_difference(again.records, plain.records);
        diff >= 0) {
      res.fail("re-driven records differ from the campaign's at item " +
               std::to_string(diff));
    }
    if (!(Counts::read(traced_rec.metrics) == p.counts)) {
      res.fail("re-driven counters differ from the campaign's");
    }
    if (pass == 0) {
      check_recorded_digest(res, "national_scan", opt,
                            encode_all(plain.records).digest());
    }
    passes.push_back(std::move(p));
  }

  const DeviceCosts device =
      device_pass(policy, {"blog.example.com", "play.google.com"},
                  opt.tiny ? 0.02 : 0.3);
  report_layers(res, log, passes, ckpt, replica_mb, device, device.frag_ns);
  res.notes.push_back(
      "checkpointed and re-driven results equal the campaign's on " +
      std::to_string(passes.size()) + " passes");
  log.write_jsonl(res, opt.spans_path, origin);
  return res;
}

}  // namespace

Result run_national_scan(const Options& opt) {
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace tspu::campaign_bench
