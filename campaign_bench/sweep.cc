// The domain_sweep workload: §6 testing of a stride of the paper-scale
// domain corpus through measure::DomainTester::test_domain (kStandard depth,
// DNS and SNI-IV follow-ups) from all three vantage points, driven through
// runner::shard_map at jobs=1 — a closed loop of one: the next domain starts
// when the previous one finishes, and the runner runs inline.
#include <algorithm>
#include <memory>

#include "layers.h"
#include "measure/common.h"
#include "measure/domain_tester.h"
#include "obs/obs.h"
#include "runner/runner.h"
#include "topo/scenario.h"

namespace tspu::campaign_bench {
namespace {

constexpr std::uint64_t kWorldStream = 3;
constexpr std::uint64_t kCorpusStream = 4;
constexpr std::uint64_t kItemStream = 5;
constexpr int kJobs = 1;
/// Builds per set-up sample. One Scenario takes 35-70 ms, too short to time
/// steadily on its own, so an untraced sweep builds this many back to back
/// (over 100 ms of building) and reports their summed build time per build.
/// Each replica is released, untimed, before the next is built, so the
/// resident set stays that of one; the sweep runs on the last.
constexpr int kSetupBuilds = 3;
/// Domains per timed chunk of an untraced sweep. Chunks split the sweep
/// into equal runs of consecutive domains, at least this many each: 70-150
/// ms, so no interval is timed shorter than ~50 ms.
constexpr std::size_t kChunkItems = 400;

struct SweepShape {
  double corpus_scale;
  std::size_t stride;  ///< test every stride-th domain of the corpus
};

SweepShape sweep_shape(bool tiny) {
  return tiny ? SweepShape{0.05, 8} : SweepShape{1.0, 8};
}

topo::ScenarioConfig world_config(const Options& opt) {
  topo::ScenarioConfig cfg;
  cfg.perfect_devices = true;
  cfg.corpus.scale = sweep_shape(opt.tiny).corpus_scale;
  cfg.corpus.seed = fork_seed(opt.seed, kCorpusStream);
  cfg.seed = fork_seed(opt.seed, kWorldStream);
  return cfg;
}

measure::DomainTestConfig test_config() {
  measure::DomainTestConfig tc;
  tc.depth = measure::ClassifyDepth::kStandard;
  tc.run_dns = true;
  tc.probe_sni_iv = true;
  return tc;
}

/// One replica and its per-shard lookups, built once: the strided domain
/// list points into this replica's own corpus.
struct Ctx {
  std::unique_ptr<topo::Scenario> world;
  std::unique_ptr<measure::DomainTester> tester;
  std::vector<const topo::DomainInfo*> domains;
};

Ctx make_ctx(std::unique_ptr<topo::Scenario> world, std::size_t stride) {
  Ctx ctx;
  ctx.world = std::move(world);
  ctx.tester = std::make_unique<measure::DomainTester>(*ctx.world);
  const auto& all = ctx.world->corpus().domains();
  for (std::size_t i = 0; i < all.size(); i += stride) {
    ctx.domains.push_back(&all[i]);
  }
  return ctx;
}

/// A tested domain, or the error it threw.
struct Item {
  measure::DomainVerdict verdict;
  bool expected_blocked = false;
  std::string error;
};

/// Runs fn() inside a span when tracing, plainly otherwise.
template <typename Fn>
auto maybe_timed(SpanSink* sink, std::uint64_t parent, const char* name,
                 const char* layer, std::int64_t item, Fn&& fn) {
  if (sink == nullptr) return fn();
  return sink->timed(parent, name, layer, item, std::forward<Fn>(fn));
}

Item test_one(Ctx& ctx, std::size_t i, std::uint64_t root, SpanSink* sink,
              std::uint64_t shard_id) {
  Item item;
  const topo::DomainInfo& domain = *ctx.domains[i];
  const auto index = static_cast<std::int64_t>(i);
  item.expected_blocked = domain.tspu.any();
  try {
    maybe_timed(sink, shard_id, "topo.begin_trial", "topo", index, [&] {
      ctx.world->begin_trial(runner::item_seed(root, i));
      measure::reset_fresh_port();
    });
    item.verdict = maybe_timed(sink, shard_id, "measure.item", "measure", index,
                               [&] {
                                 return ctx.tester->test_domain(domain,
                                                                test_config());
                               });
  } catch (const std::exception& e) {
    item.error = e.what();
  }
  return item;
}

/// Ground truth check: every vantage point must see the TSPU block the
/// domain exactly when the corpus gives it a TSPU behaviour.
bool agrees_with_truth(const Item& item, std::size_t vantage_points) {
  if (!item.error.empty() || item.verdict.tspu.size() != vantage_points) {
    return false;
  }
  for (const measure::SniOutcome o : item.verdict.tspu) {
    if (o == measure::SniOutcome::kNoConnection) return false;
    if ((o != measure::SniOutcome::kOk) != item.expected_blocked) return false;
  }
  return true;
}

void encode(Encoder& e, const Item& item) {
  const measure::DomainVerdict& v = item.verdict;
  e.str(item.error);
  e.str(v.domain);
  e.u64(static_cast<std::uint64_t>(v.category));
  e.boolean(v.in_tranco);
  e.boolean(v.in_registry);
  e.u64(v.tspu.size());
  for (const measure::SniOutcome o : v.tspu) {
    e.u64(static_cast<std::uint64_t>(o));
  }
  e.u64(v.isp_blockpage.size());
  for (const bool b : v.isp_blockpage) e.boolean(b);
}

Encoder encode_all(const std::vector<Item>& items) {
  Encoder e;
  for (const Item& item : items) encode(e, item);
  return e;
}

struct Sweep {
  double setup_s = 0;
  double items_s = 0;
  std::vector<Item> items;
  std::vector<double> chunk_s;  ///< each chunk's time; untraced sweeps only
  std::size_t vantage_points = 0;
};

std::uint64_t count_failed(const Sweep& s) {
  std::uint64_t failed = 0;
  for (const Item& item : s.items) {
    if (!agrees_with_truth(item, s.vantage_points)) ++failed;
  }
  return failed;
}

/// One sweep: build the world (set-up), then test every strided domain
/// through the runner, timing each chunk of kChunkItems domains. With a
/// span log, the world is built once, and spans go around the build, the
/// campaign call, the shard loop, begin_trial and each test_domain call
/// instead.
Sweep run_sweep(const Options& opt, SpanLog* log = nullptr, int pass = 0) {
  const std::uint64_t root = fork_seed(opt.seed, kItemStream);
  SpanSink caller(pass, -1);
  SpanSink shard_sink(pass, 0);
  SpanSink* const traced_caller = log != nullptr ? &caller : nullptr;
  SpanSink* const traced_shard = log != nullptr ? &shard_sink : nullptr;
  const std::uint64_t campaign_id = caller.next_id();
  const std::uint64_t shard_id = shard_sink.next_id();

  Sweep s;
  const int builds = log != nullptr ? 1 : kSetupBuilds;
  std::unique_ptr<topo::Scenario> world;
  Clock::time_point built;
  for (int b = 0; b < builds; ++b) {
    world.reset();
    const Clock::time_point start = Clock::now();
    world = maybe_timed(traced_caller, 0, "topo.build", "topo", -1, [&] {
      return std::make_unique<topo::Scenario>(world_config(opt));
    });
    built = Clock::now();
    s.setup_s += seconds_between(start, built) / builds;
  }
  s.vantage_points = world->vantage_points().size();
  Ctx ctx = make_ctx(std::move(world), sweep_shape(opt.tiny).stride);
  const std::size_t n = ctx.domains.size();
  const std::size_t chunks = std::max<std::size_t>(1, n / kChunkItems);
  std::vector<Clock::time_point> marks;  ///< chunk starts, then the end
  Clock::time_point shard_start;
  s.items = runner::shard_map(
      n, kJobs,
      [&](int) {
        shard_start = Clock::now();
        return std::move(ctx);
      },
      [&](Ctx& c, std::size_t i) {
        // jobs=1 runs the items in order, so chunk starts come in order.
        if (i == marks.size() * n / chunks) marks.push_back(Clock::now());
        Item item = test_one(c, i, root, traced_shard, shard_id);
        if (i + 1 == n) {
          marks.push_back(Clock::now());
          if (traced_shard != nullptr) {
            shard_sink.add(shard_id, campaign_id, "shard", "runner", -1,
                           shard_start, marks.back());
          }
        }
        return item;
      });
  const Clock::time_point end = Clock::now();
  s.items_s = seconds_between(built, end);
  if (log == nullptr) {
    for (std::size_t c = 0; c + 1 < marks.size(); ++c) {
      s.chunk_s.push_back(seconds_between(marks[c], marks[c + 1]));
    }
  } else {
    caller.add(campaign_id, 0, "campaign", "runner", -1, built, end);
    log->absorb(shard_sink);
    log->absorb(caller);
  }
  return s;
}

/// Domains per second if every chunk took its fastest time over the run's
/// sweeps. Every sweep repeats the same chunks with the same results, so a
/// chunk's times differ only by what other tenants of the host added to
/// them. Each chunk finds its own quiet moment; a whole sweep, six times
/// as long, seldom meets one.
double fastest_items_per_s(std::size_t items,
                           const std::vector<std::vector<double>>& chunk_s) {
  if (chunk_s.empty()) return 0;
  std::vector<double> times(chunk_s.size());
  double total_s = 0;
  for (std::size_t c = 0; c < chunk_s.front().size(); ++c) {
    for (std::size_t r = 0; r < chunk_s.size(); ++r) times[r] = chunk_s[r][c];
    total_s += quantile(times, 0);
  }
  return total_s > 0 ? static_cast<double>(items) / total_s : 0;
}

Result untraced(const Options& opt) {
  Result res;
  obs::Recorder recorder{obs::TraceConfig{}};
  obs::RecorderScope scope(recorder);

  std::vector<double> setup_s, items_per_s;
  std::vector<std::vector<double>> chunk_s;  ///< [sweep][chunk]
  Encoder first;
  std::size_t n = 0;
  RoundClock clock(opt.seconds, 3);
  while (clock.another()) {
    Sweep s = run_sweep(opt);
    n = s.items.size();
    res.attempted += n;
    res.failed += count_failed(s);
    setup_s.push_back(s.setup_s);
    items_per_s.push_back(static_cast<double>(n) / s.items_s);
    chunk_s.push_back(std::move(s.chunk_s));
    Encoder e = encode_all(s.items);
    if (clock.rounds() == 1) {
      first = std::move(e);
    } else if (e.bytes() != first.bytes()) {
      res.fail("repetition " + std::to_string(clock.rounds()) +
               " produced different verdicts than the first");
    }
  }
  const double rss = peak_rss_mb();
  check_recorded_digest(res, "domain_sweep", opt, first.digest());
  res.notes.push_back(std::to_string(clock.rounds()) + " sweeps of " +
                      std::to_string(n) + " domains at jobs=1");
  report_end_to_end(res, fastest_items_per_s(n, chunk_s), items_per_s, setup_s,
                    rss);
  return res;
}

Result traced(const Options& opt) {
  Result res;
  const Clock::time_point origin = Clock::now();

  double replica_mb = 0;
  core::PolicyPtr policy;
  std::vector<std::string> snis;
  {
    const double before = current_rss_mb();
    topo::Scenario world(world_config(opt));
    replica_mb = current_rss_mb() - before;
    policy = world.policy();
    const auto& all = world.corpus().domains();
    for (std::size_t i = 0; i < all.size(); i += sweep_shape(opt.tiny).stride) {
      snis.push_back(all[i].name);
    }
  }

  SpanLog log;
  std::vector<TracedPass> passes;
  RoundClock clock(opt.seconds, 1);
  while (clock.another()) {
    const int pass = clock.rounds() - 1;
    TracedPass p;
    obs::Recorder untraced_rec{obs::TraceConfig{}};
    Sweep plain;
    {
      obs::RecorderScope scope(untraced_rec);
      plain = run_sweep(opt);
    }
    p.items = plain.items.size();
    p.untraced_items_per_s = static_cast<double>(p.items) / plain.items_s;
    p.counts = Counts::read(untraced_rec.metrics);
    res.attempted += p.items;
    res.failed += count_failed(plain);

    obs::Recorder traced_rec{obs::TraceConfig{}};
    Sweep again;
    {
      obs::RecorderScope scope(traced_rec);
      again = run_sweep(opt, &log, pass);
    }
    p.traced_items_per_s = static_cast<double>(p.items) / again.items_s;
    res.attempted += again.items.size();
    res.failed += count_failed(again);
    const Encoder expected = encode_all(plain.items);
    if (encode_all(again.items).bytes() != expected.bytes()) {
      res.fail("traced sweep verdicts differ from the untraced sweep's");
    }
    if (!(Counts::read(traced_rec.metrics) == p.counts)) {
      res.fail("traced sweep counters differ from the untraced sweep's");
    }
    if (pass == 0) check_recorded_digest(res, "domain_sweep", opt, expected.digest());
    passes.push_back(std::move(p));
  }

  const DeviceCosts device = device_pass(policy, snis, opt.tiny ? 0.02 : 0.3);
  report_layers(res, log, passes, CkptFigures{}, replica_mb, device,
                device.tls_ns);
  res.notes.push_back("traced results equal the untraced sweep's on " +
                      std::to_string(passes.size()) + " passes");
  log.write_jsonl(res, opt.spans_path, origin);
  return res;
}

}  // namespace

Result run_domain_sweep(const Options& opt) {
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace tspu::campaign_bench
