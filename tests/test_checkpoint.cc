// Checkpoint/resume subsystem tests (runner/checkpoint.h + the codecs):
//
//  * encode -> decode -> encode byte-equality for every snapshot codec
//    (StateWriter primitives, Recorder, ScanRecord);
//  * strict snapshot-file validation: any single-byte corruption, any
//    truncation, bad magic/version/checksum all read back as nullopt, and
//    a version-1 snapshot (which carried shard-state blobs) is refused;
//  * checkpointed_map semantics: kill-at-item-K + resume reproduces an
//    uninterrupted run's results byte-for-byte at the same AND a different
//    job count, campaign-identity mismatches are refused, SIGTERM latches;
//  * lazy-expiry regressions: expired-but-unswept entries must neither
//    trigger overload.enter nor hold the latch once they age out;
//  * end-to-end: a killed+resumed national scan and a killed+resumed
//    scenario reliability cell produce byte-identical records, metrics
//    JSON, and trace JSONL versus never having stopped, for jobs=1 and 4,
//    across job counts, and across a resume of a resume.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "measure/reliability.h"
#include "measure/scan.h"
#include "obs/obs.h"
#include "runner/checkpoint.h"
#include "runner/runner.h"
#include "topo/national.h"
#include "topo/scenario.h"
#include "tspu/conntrack.h"
#include "tspu/frag_engine.h"
#include "util/statecodec.h"
#include "wire/fragment.h"
#include "wire/ipv4.h"

namespace tspu {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spew(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "tspu_ckpt_" + name;
}

// ------------------------------------------------------------- primitives

TEST(StateCodec, PrimitivesRoundTripAndLatchOnTruncation) {
  util::StateWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(-1.5);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");

  util::StateReader r(w.data());
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  double f = 0;
  bool t = false, fl = true;
  std::string s;
  EXPECT_TRUE(r.u8(a) && r.u16(b) && r.u32(c) && r.u64(d) && r.i64(e) &&
              r.f64(f) && r.boolean(t) && r.boolean(fl) && r.str(s));
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefull);
  EXPECT_EQ(e, -42);
  EXPECT_EQ(f, -1.5);
  EXPECT_TRUE(t);
  EXPECT_FALSE(fl);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.done());

  // Truncation at any prefix latches ok()==false and stays latched.
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    util::StateReader rt(std::string_view(w.data()).substr(0, cut));
    std::uint8_t v8 = 0;
    std::uint64_t v64 = 0;
    std::string vs;
    while (rt.u8(v8)) {
    }
    EXPECT_FALSE(rt.ok());
    EXPECT_FALSE(rt.u64(v64));
    EXPECT_FALSE(rt.str(vs));
    EXPECT_EQ(rt.remaining(), 0u);
  }

  // Non-canonical booleans are rejected, not coerced.
  util::StateWriter wb;
  wb.u8(2);
  util::StateReader rb(wb.data());
  bool out = false;
  EXPECT_FALSE(rb.boolean(out));
  EXPECT_FALSE(rb.ok());

  // A declared string length larger than the remaining bytes is refused
  // before any allocation.
  util::StateWriter ws;
  ws.u32(0xffffffffu);
  util::StateReader rs(ws.data());
  std::string huge;
  EXPECT_FALSE(rs.str(huge));
  EXPECT_FALSE(rs.ok());
}

// -------------------------------------------------- codec byte-equality
//
// The pattern everywhere: populate -> save (blob1) -> load into a FRESH
// instance -> save again (blob2) -> blob1 == blob2. This is exactly the
// property checkpointed_map relies on when it re-encodes decoded results
// and recorder state into the next snapshot.

TEST(CodecRoundTrip, RecorderByteEquality) {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.per_item_cap = 8;
  obs::Recorder a(cfg);
  a.metrics.counter("c.one").add(3);
  a.metrics.counter("c.two").add(0x100000001ull);
  a.metrics.gauge("g.neg").set(-17);  // negative gauges must survive
  a.metrics.gauge("g.pos").set_max(42);
  a.metrics.histogram("h").observe(0);
  a.metrics.histogram("h").observe(1000);
  a.metrics.histogram("h.empty.sentinel");  // untouched min_ sentinel
  for (std::uint64_t i = 0; i < 12; ++i) {  // overflows the per-item cap
    obs::TraceEvent ev;
    ev.item = i % 2;
    ev.seq = i;
    ev.t_us = static_cast<std::int64_t>(i) * 10;
    ev.layer = obs::Layer::kConntrack;
    ev.kind = "k" + std::to_string(i);
    ev.flow = "10.0.0.1:1>2.2.2.2:443/tcp";
    ev.detail = "d\"etail\n";  // exercises JSON escaping downstream
    a.trace.push(std::move(ev));
  }

  util::StateWriter w1;
  a.save_state(w1);
  obs::Recorder b(cfg);
  util::StateReader r(w1.data());
  ASSERT_TRUE(b.load_state(r));
  EXPECT_TRUE(r.done());
  util::StateWriter w2;
  b.save_state(w2);
  EXPECT_EQ(w1.data(), w2.data());
  // The human-facing exports agree too.
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
  EXPECT_EQ(a.trace.to_jsonl(), b.trace.to_jsonl());

  obs::Recorder c(cfg);
  util::StateReader bad(std::string_view(w1.data()).substr(0, 5));
  EXPECT_FALSE(c.load_state(bad));
}

TEST(CodecRoundTrip, ScanRecordByteEquality) {
  measure::ScanRecord full;
  full.endpoint_index = 41;
  full.addr = util::Ipv4Addr(100, 64, 3, 9);
  full.port = 443;
  full.as_index = 17;
  full.device_label = "tspu-17";
  full.echo_server = true;
  full.truth_downstream_visible = true;
  full.truth_upstream_visible = false;
  full.truth_hops = 4;
  full.fingerprinted = true;
  full.fingerprint.responded_intact = true;
  full.fingerprint.responded_45 = true;
  full.fingerprint.responded_46 = false;
  measure::FragLocalizeResult loc;
  loc.min_working_ttl = 3;
  loc.path_hops = 7;
  loc.device_hops_from_destination = 4;
  full.location = loc;
  full.tspu_link = std::make_pair(0xac100101u, 0xac100102u);
  full.retried = true;
  full.verdict = measure::Verdict::kConfirmed;
  full.verdict_tspu = true;
  full.attempts = 5;

  for (const measure::ScanRecord& rec :
       {full, measure::ScanRecord{}}) {  // engaged and empty optionals
    util::StateWriter w1;
    measure::encode_scan_record(rec, w1);
    measure::ScanRecord back;
    util::StateReader r(w1.data());
    ASSERT_TRUE(measure::decode_scan_record(back, r));
    EXPECT_TRUE(r.done());
    util::StateWriter w2;
    measure::encode_scan_record(back, w2);
    EXPECT_EQ(w1.data(), w2.data());
  }

  // Out-of-range verdict enums are rejected.
  util::StateWriter w;
  measure::encode_scan_record(full, w);
  std::string blob = w.take();
  measure::ScanRecord back;
  {
    util::StateReader r(blob);
    ASSERT_TRUE(measure::decode_scan_record(back, r));
  }
  // Truncations never decode.
  for (std::size_t cut : {std::size_t{0}, blob.size() / 2, blob.size() - 1}) {
    util::StateReader r(std::string_view(blob).substr(0, cut));
    measure::ScanRecord t;
    EXPECT_FALSE(measure::decode_scan_record(t, r));
  }
}

// ------------------------------------------------------- snapshot format

runner::Snapshot sample_snapshot() {
  runner::Snapshot snap;
  snap.identity = 0xabcdef0123456789ull;
  snap.n_items = 10;
  snap.next_index = 3;
  snap.shard_count = 2;
  snap.results = {{0, "alpha"}, {1, std::string("\x00\x01", 2)}, {2, ""}};
  snap.recorder_blobs = {"rec0", "rec1"};
  return snap;
}

TEST(Snapshot, WriteReadRoundTrip) {
  const std::string path = tmp_path("roundtrip.ckpt");
  const runner::Snapshot snap = sample_snapshot();
  ASSERT_TRUE(runner::write_snapshot(path, snap));
  const auto back = runner::read_snapshot(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->identity, snap.identity);
  EXPECT_EQ(back->n_items, snap.n_items);
  EXPECT_EQ(back->next_index, snap.next_index);
  EXPECT_EQ(back->shard_count, snap.shard_count);
  EXPECT_EQ(back->results, snap.results);
  EXPECT_EQ(back->recorder_blobs, snap.recorder_blobs);
  // No stray .tmp left behind by the atomic rename.
  EXPECT_TRUE(slurp(path + ".tmp").empty());
}

TEST(Snapshot, MissingFileReadsAsNullopt) {
  EXPECT_FALSE(runner::read_snapshot(tmp_path("never_written.ckpt")));
}

TEST(Snapshot, EverySingleByteCorruptionIsRejected) {
  const std::string path = tmp_path("corrupt.ckpt");
  ASSERT_TRUE(runner::write_snapshot(path, sample_snapshot()));
  const std::string good = slurp(path);
  ASSERT_FALSE(good.empty());

  const std::string mutated = tmp_path("corrupt_mut.ckpt");
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    spew(mutated, bad);
    EXPECT_FALSE(runner::read_snapshot(mutated)) << "flipped byte " << i;
  }
}

TEST(Snapshot, EveryTruncationAndTrailingGarbageIsRejected) {
  const std::string path = tmp_path("trunc.ckpt");
  ASSERT_TRUE(runner::write_snapshot(path, sample_snapshot()));
  const std::string good = slurp(path);

  const std::string mutated = tmp_path("trunc_mut.ckpt");
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    spew(mutated, good.substr(0, cut));
    EXPECT_FALSE(runner::read_snapshot(mutated)) << "truncated to " << cut;
  }
  spew(mutated, good + "x");
  EXPECT_FALSE(runner::read_snapshot(mutated));
  spew(mutated, std::string(4096, '\xff'));
  EXPECT_FALSE(runner::read_snapshot(mutated));
  spew(mutated, "");
  EXPECT_FALSE(runner::read_snapshot(mutated));
}

TEST(Snapshot, VersionOneIsRefused) {
  const std::string path = tmp_path("v1.ckpt");
  ASSERT_TRUE(runner::write_snapshot(path, sample_snapshot()));
  const std::string good = slurp(path);
  // Header: u32 magic, u32 version (little-endian), u32 body_len, u64
  // checksum over the body only, so patching the version keeps the
  // checksum valid: only the version check can refuse this file.
  ASSERT_EQ(good[4], '\x02');
  std::string v1 = good;
  v1[4] = '\x01';
  spew(path, v1);
  EXPECT_FALSE(runner::read_snapshot(path));
}

// ----------------------------------------------------- checkpointed_map

/// The smallest useful campaign: item i's result is item_seed(root, i), a
/// pure function of the index, so any shard layout must reproduce it.
struct IntShard {
  int shard = 0;
};

struct IntCodec {
  std::uint64_t ident = 0x7e57;
  std::uint64_t identity() const { return ident; }
  void encode(const std::uint64_t& v, util::StateWriter& w) const { w.u64(v); }
  bool decode(std::uint64_t& v, util::StateReader& r) const { return r.u64(v); }
};

std::vector<std::uint64_t> run_int_campaign(std::size_t n, int jobs,
                                            const runner::CheckpointOptions& o,
                                            std::uint64_t ident = 0x7e57) {
  auto make = [](int shard) { return IntShard{shard}; };
  auto fn = [](IntShard&, std::size_t i) { return runner::item_seed(99, i); };
  IntCodec codec;
  codec.ident = ident;
  return runner::checkpointed_map(n, jobs, make, fn, codec, o);
}

TEST(CheckpointedMap, KillAndResumeReproducesUninterruptedRun) {
  const std::vector<std::uint64_t> expected =
      run_int_campaign(37, 3, runner::CheckpointOptions{});
  ASSERT_EQ(expected.size(), 37u);

  for (int resume_jobs : {3, 2}) {  // same shard count and a different one
    const std::string path = tmp_path("int_campaign_j" +
                                      std::to_string(resume_jobs) + ".ckpt");
    runner::CheckpointOptions opts;
    opts.path = path;
    opts.every_n_items = 5;
    opts.abort_after_items = 11;
    EXPECT_THROW(run_int_campaign(37, 3, opts), runner::CampaignInterrupted);

    runner::CheckpointOptions res;
    res.path = path;
    res.resume = true;
    res.every_n_items = 5;
    EXPECT_EQ(run_int_campaign(37, resume_jobs, res), expected);
  }
}

TEST(CheckpointedMap, InterruptedExceptionReportsProgress) {
  const std::string path = tmp_path("int_progress.ckpt");
  runner::CheckpointOptions opts;
  opts.path = path;
  opts.every_n_items = 4;
  opts.abort_after_items = 6;
  try {
    run_int_campaign(20, 2, opts);
    FAIL() << "expected CampaignInterrupted";
  } catch (const runner::CampaignInterrupted& e) {
    EXPECT_EQ(e.checkpoint_path(), path);
    // abort_after=6 rounds up to the containing wave barrier (chunk 4).
    EXPECT_GE(e.items_completed(), 6u);
    EXPECT_LT(e.items_completed(), 20u);
    const auto snap = runner::read_snapshot(path);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->next_index, e.items_completed());
  }
}

TEST(CheckpointedMap, ResumeRefusesForeignOrCorruptSnapshots) {
  const std::string path = tmp_path("int_foreign.ckpt");
  runner::CheckpointOptions opts;
  opts.path = path;
  opts.every_n_items = 4;
  opts.abort_after_items = 4;
  EXPECT_THROW(run_int_campaign(20, 2, opts), runner::CampaignInterrupted);

  runner::CheckpointOptions res;
  res.path = path;
  res.resume = true;
  // Different campaign identity.
  EXPECT_THROW(run_int_campaign(20, 2, res, /*ident=*/0x1111),
               std::runtime_error);
  // Different item count.
  EXPECT_THROW(run_int_campaign(21, 2, res), std::runtime_error);
  // Corrupt file.
  std::string raw = slurp(path);
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x01);
  spew(path, raw);
  EXPECT_THROW(run_int_campaign(20, 2, res), std::runtime_error);
  // Missing file.
  res.path = tmp_path("int_missing.ckpt");
  EXPECT_THROW(run_int_campaign(20, 2, res), std::runtime_error);
}

TEST(CheckpointedMap, SigtermLatchInterruptsAtWaveBarrier) {
  runner::reset_sigterm_for_testing();
  runner::install_sigterm_checkpoint();
  EXPECT_FALSE(runner::sigterm_requested());
  std::raise(SIGTERM);
  EXPECT_TRUE(runner::sigterm_requested());

  const std::string path = tmp_path("int_sigterm.ckpt");
  runner::CheckpointOptions opts;
  opts.path = path;
  opts.every_n_items = 4;
  try {
    run_int_campaign(20, 2, opts);
    FAIL() << "expected CampaignInterrupted";
  } catch (const runner::CampaignInterrupted& e) {
    // The latch is polled at the first barrier: exactly one wave ran.
    EXPECT_EQ(e.items_completed(), 4u);
  }
  // Without a snapshot path there is nothing to resume from: the latch and
  // the abort hook are ignored and the campaign runs to the end.
  runner::CheckpointOptions plain;
  plain.abort_after_items = 4;
  EXPECT_EQ(run_int_campaign(20, 2, plain).size(), 20u);
  runner::reset_sigterm_for_testing();
  EXPECT_FALSE(runner::sigterm_requested());

  // After the reset the same campaign completes.
  runner::CheckpointOptions res;
  res.path = path;
  res.resume = true;
  res.every_n_items = 4;
  EXPECT_EQ(run_int_campaign(20, 2, res).size(), 20u);
}

// ------------------------------------------------- lazy-expiry regressions

wire::Packet frag_source_packet(std::size_t size, std::uint16_t id) {
  wire::Packet pkt;
  pkt.ip.src = util::Ipv4Addr(10, 1, 2, 3);
  pkt.ip.dst = util::Ipv4Addr(93, 184, 216, 34);
  pkt.ip.id = id;
  pkt.ip.ttl = 61;
  pkt.payload.assign(size, 0x5c);
  return pkt;
}

core::FlowKey flow_n(int i) {
  core::FlowKey k;
  k.local = util::Ipv4Addr(10, 0, 0, 1);
  k.remote = util::Ipv4Addr(93, 184, 216, 34);
  k.local_port = static_cast<std::uint16_t>(20000 + i);
  k.remote_port = 443;
  return k;
}

TEST(OverloadRegression, ExpiredConnEntriesDoNotTriggerOverloadEnter) {
  obs::Recorder rec;
  obs::RecorderScope scope(rec);

  core::TableBudget budget;
  budget.max_entries = 8;
  budget.policy = core::EvictionPolicy::kEvictOldest;
  core::OverloadPolicy policy;
  policy.enter_fraction = 0.75;  // 6 of 8
  policy.exit_fraction = 0.5;
  core::ConnTracker ct({}, {}, /*strict_roles=*/false, budget, policy);

  const util::Instant t0;
  // 5/8 live: under the high-water mark.
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(ct.admit_tcp(flow_n(i), wire::kSyn, true, t0), nullptr);
  }
  EXPECT_FALSE(ct.overloaded());

  // All 5 expire (60 s SYN-SENT timeout) but stay unswept in the raw table.
  const util::Instant later = t0 + util::Duration::seconds(120);
  ASSERT_EQ(ct.size(), 5u);

  // The 6th admission must see occupancy 1/8 — NOT 6/8: dead entries must
  // be swept before the gauge publishes and the hysteresis latch decides.
  ASSERT_NE(ct.admit_tcp(flow_n(5), wire::kSyn, true, later), nullptr);
  EXPECT_FALSE(ct.overloaded());
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.overload.enter"), 0u);
  EXPECT_EQ(ct.live_size(later), 1u);
}

TEST(OverloadRegression, ExpiredFragQueuesDoNotTriggerOverloadEnter) {
  obs::Recorder rec;
  obs::RecorderScope scope(rec);

  core::TableBudget budget;
  budget.max_entries = 8;
  core::OverloadPolicy policy;
  policy.enter_fraction = 0.75;
  policy.exit_fraction = 0.5;
  core::FragmentEngine engine(core::FragmentTimeouts{}, budget, policy);

  const util::Instant t0;
  for (std::uint16_t id = 0; id < 5; ++id) {  // 5 incomplete queues
    auto frags =
        wire::fragment(frag_source_packet(120, static_cast<std::uint16_t>(
                                                   100 + id)),
                       40);
    engine.push(frags[0], t0);
  }
  EXPECT_FALSE(engine.overloaded());
  ASSERT_EQ(engine.pending_queues(), 5u);

  // All 5 time out (5 s queue limit); the next push must observe 1 live
  // queue, not 6.
  const util::Instant later = t0 + util::Duration::seconds(30);
  auto fresh = wire::fragment(frag_source_packet(120, 200), 40);
  engine.push(fresh[0], later);
  EXPECT_FALSE(engine.overloaded());
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.overload.enter"), 0u);
  EXPECT_EQ(engine.pending_queues(), 1u);
}

TEST(OverloadRegression, ConntrackHysteresisExitsOnExpiryAlone) {
  obs::Recorder rec;
  obs::RecorderScope scope(rec);

  core::TableBudget budget;
  budget.max_entries = 4;
  budget.policy = core::EvictionPolicy::kRejectNew;
  core::OverloadPolicy policy;
  policy.enter_fraction = 1.0;
  policy.exit_fraction = 0.5;
  core::ConnTracker ct({}, {}, /*strict_roles=*/false, budget, policy);

  const util::Instant t0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(ct.admit_tcp(flow_n(i), wire::kSyn, true, t0), nullptr);
  }
  EXPECT_TRUE(ct.overloaded());
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.overload.enter"), 1u);

  // SHRINK-ONLY workload: no further admissions, the entries just age out.
  // The latch must release on the expiry-driven occupancy drop — a latch
  // only re-evaluated on admit stays overloaded forever here, and RejectNew
  // would refuse every future flow.
  const util::Instant later = t0 + util::Duration::seconds(120);
  EXPECT_EQ(ct.find(flow_n(0), later), nullptr);
  EXPECT_FALSE(ct.overloaded());
  EXPECT_EQ(rec.metrics.counter_value("tspu.conntrack.overload.exit"), 1u);
  ASSERT_NE(ct.admit_tcp(flow_n(9), wire::kSyn, true, later), nullptr);
}

TEST(OverloadRegression, FragHysteresisExitsOnExpiryAlone) {
  obs::Recorder rec;
  obs::RecorderScope scope(rec);

  core::TableBudget budget;
  budget.max_entries = 4;
  budget.policy = core::EvictionPolicy::kRejectNew;
  core::OverloadPolicy policy;
  policy.enter_fraction = 1.0;
  policy.exit_fraction = 0.5;
  core::FragmentEngine engine(core::FragmentTimeouts{}, budget, policy);

  const util::Instant t0;
  for (std::uint16_t id = 0; id < 4; ++id) {
    auto frags =
        wire::fragment(frag_source_packet(120, static_cast<std::uint16_t>(
                                                   300 + id)),
                       40);
    engine.push(frags[0], t0);
  }
  EXPECT_TRUE(engine.overloaded());
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.overload.enter"), 1u);

  const util::Instant later = t0 + util::Duration::seconds(30);
  engine.expire(later);
  EXPECT_EQ(engine.pending_queues(), 0u);
  EXPECT_FALSE(engine.overloaded());
  EXPECT_EQ(rec.metrics.counter_value("tspu.frag.overload.exit"), 1u);
}

TEST(OverloadRegression, FragByteGaugeTracksEveryBufferedFragment) {
  obs::Recorder rec;
  obs::RecorderScope scope(rec);

  core::TableBudget budget;
  budget.max_bytes = 1 << 16;
  core::FragmentEngine engine(core::FragmentTimeouts{}, budget);

  const util::Instant t0;
  auto frags = wire::fragment(frag_source_packet(120, 400), 40);
  ASSERT_EQ(frags.size(), 3u);
  engine.push(frags[0], t0);
  engine.push(frags[1], t0);  // grows the SAME queue: no new key
  // Both buffered fragments must be visible to the byte gauge — the old
  // code only published when a push created a fresh queue, so the second
  // 40-byte fragment never moved it.
  EXPECT_EQ(engine.buffered_bytes(), 80u);
  EXPECT_EQ(rec.metrics.gauge("tspu.frag.buffered_bytes").value(), 80);
}

// ------------------------------------------------------------ end-to-end

struct E2ERun {
  std::string records_blob;  ///< concatenated encoded records
  std::string summary_digest;
  std::string metrics_json;
  std::string trace_jsonl;
};

std::string digest_records(const std::vector<measure::ScanRecord>& records) {
  util::StateWriter w;
  for (const measure::ScanRecord& rec : records) {
    measure::encode_scan_record(rec, w);
  }
  return w.take();
}

std::string digest_summary(const measure::ScanSummary& s) {
  std::ostringstream out;
  out << s.endpoints_probed << "/" << s.tspu_positive << "/" << s.confirmed
      << "/" << s.inconclusive << "/" << s.unreachable << "/"
      << s.ases_positive.size() << "/" << s.tspu_links.size();
  return out.str();
}

topo::NationalConfig national_config() {
  topo::NationalConfig cfg;
  cfg.endpoint_scale = 0.0005;
  cfg.n_ases = 60;
  return cfg;
}

measure::ParallelScanConfig national_scan_config() {
  measure::ParallelScanConfig scan;
  scan.fingerprint = true;
  scan.localize = true;
  scan.trace_links = true;
  scan.max_endpoints = 12;
  return scan;
}

/// One national scan with a recorder bound; `ckpt` empty = uninterrupted.
E2ERun run_national(int jobs, const runner::CheckpointOptions& ckpt) {
  obs::TraceConfig tc;
  tc.enabled = true;
  tc.per_item_cap = 4096;
  obs::Recorder rec(tc);
  obs::RecorderScope scope(rec);

  measure::ParallelScanOutcome out;
  if (ckpt.path.empty()) {
    out = measure::parallel_scan(national_config(), national_scan_config(),
                                 jobs);
  } else {
    out = measure::parallel_scan_checkpointed(
        national_config(), national_scan_config(), ckpt, jobs);
  }
  E2ERun run;
  run.records_blob = digest_records(out.records);
  run.summary_digest = digest_summary(out.summary);
  run.metrics_json = rec.metrics.to_json();
  run.trace_jsonl = rec.trace.to_jsonl();
  return run;
}

/// One interrupted generation of the national scan: its recorder state
/// lives on only inside the snapshot it leaves at `kill.path`.
void interrupt_national(int jobs, const runner::CheckpointOptions& kill) {
  obs::TraceConfig tc;
  tc.enabled = true;
  tc.per_item_cap = 4096;
  obs::Recorder rec(tc);
  obs::RecorderScope scope(rec);
  EXPECT_THROW(measure::parallel_scan_checkpointed(
                   national_config(), national_scan_config(), kill, jobs),
               runner::CampaignInterrupted);
}

TEST(CheckpointResume, NationalScanKillResumeByteIdentical) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const E2ERun baseline = run_national(jobs, runner::CheckpointOptions{});
    ASSERT_FALSE(baseline.records_blob.empty());
    ASSERT_FALSE(baseline.trace_jsonl.empty());

    const std::string path =
        tmp_path("national_j" + std::to_string(jobs) + ".ckpt");
    runner::CheckpointOptions kill;
    kill.path = path;
    kill.every_n_items = 4;
    kill.abort_after_items = 5;
    interrupt_national(jobs, kill);
    const auto snap = runner::read_snapshot(path);
    ASSERT_TRUE(snap.has_value());
    EXPECT_GT(snap->next_index, 0u);
    EXPECT_LT(snap->next_index, snap->n_items);

    runner::CheckpointOptions resume;
    resume.path = path;
    resume.resume = true;
    resume.every_n_items = 4;
    const E2ERun resumed = run_national(jobs, resume);

    EXPECT_EQ(resumed.records_blob, baseline.records_blob);
    EXPECT_EQ(resumed.summary_digest, baseline.summary_digest);
    EXPECT_EQ(resumed.metrics_json, baseline.metrics_json);
    EXPECT_EQ(resumed.trace_jsonl, baseline.trace_jsonl);
  }
}

TEST(CheckpointResume, NationalScanResumeAtDifferentJobCount) {
  // Killed at jobs=4, resumed at jobs=2 on fresh replicas: the determinism
  // contract still yields the jobs=1 baseline byte-for-byte.
  const E2ERun baseline = run_national(1, runner::CheckpointOptions{});
  const std::string path = tmp_path("national_cross_jobs.ckpt");
  runner::CheckpointOptions kill;
  kill.path = path;
  kill.every_n_items = 4;
  kill.abort_after_items = 5;
  interrupt_national(4, kill);
  runner::CheckpointOptions resume;
  resume.path = path;
  resume.resume = true;
  resume.every_n_items = 4;
  const E2ERun resumed = run_national(2, resume);
  EXPECT_EQ(resumed.records_blob, baseline.records_blob);
  EXPECT_EQ(resumed.metrics_json, baseline.metrics_json);
  EXPECT_EQ(resumed.trace_jsonl, baseline.trace_jsonl);
}

TEST(CheckpointResume, NationalScanResumeOfResumeAcrossJobCounts) {
  // Three generations at three job counts: killed at jobs=4, resumed at
  // jobs=1 and killed again, then finished at jobs=2. The second snapshot
  // must carry the first generation's recorder blobs forward.
  const E2ERun baseline = run_national(1, runner::CheckpointOptions{});
  const std::string path = tmp_path("national_resume_of_resume.ckpt");
  runner::CheckpointOptions opts;
  opts.path = path;
  opts.every_n_items = 1;  // one item per shard per wave
  opts.abort_after_items = 5;
  interrupt_national(4, opts);
  const auto first = runner::read_snapshot(path);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->next_index, 8u);

  opts.resume = true;
  opts.abort_after_items = 9;
  interrupt_national(1, opts);
  const auto second = runner::read_snapshot(path);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->next_index, 9u);
  EXPECT_EQ(second->shard_count, 1u);
  EXPECT_EQ(second->recorder_blobs.size(), first->recorder_blobs.size() + 1);

  opts.abort_after_items = 0;
  const E2ERun resumed = run_national(2, opts);
  EXPECT_EQ(resumed.records_blob, baseline.records_blob);
  EXPECT_EQ(resumed.summary_digest, baseline.summary_digest);
  EXPECT_EQ(resumed.metrics_json, baseline.metrics_json);
  EXPECT_EQ(resumed.trace_jsonl, baseline.trace_jsonl);
}

struct ScenarioRun {
  std::vector<bool> flags;
  std::string metrics_json;
  std::string trace_jsonl;
};

topo::ScenarioConfig scenario_config() {
  topo::ScenarioConfig cfg;
  cfg.corpus.scale = 0.01;
  return cfg;
}

ScenarioRun run_reliability(int jobs, const runner::CheckpointOptions& ckpt) {
  obs::TraceConfig tc;
  tc.enabled = true;
  tc.per_item_cap = 4096;
  obs::Recorder rec(tc);
  obs::RecorderScope scope(rec);

  ScenarioRun run;
  run.flags = measure::sharded_reliability_trials(
      scenario_config(), "ER-Telecom", measure::TriggerKind::kSniI,
      /*n_trials=*/10, /*seed=*/0x7ab1e1, jobs, ckpt);
  run.metrics_json = rec.metrics.to_json();
  run.trace_jsonl = rec.trace.to_jsonl();
  return run;
}

TEST(CheckpointResume, ScenarioReliabilityKillResumeByteIdentical) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const ScenarioRun baseline =
        run_reliability(jobs, runner::CheckpointOptions{});
    ASSERT_EQ(baseline.flags.size(), 10u);
    ASSERT_FALSE(baseline.trace_jsonl.empty());

    const std::string path =
        tmp_path("reliability_j" + std::to_string(jobs) + ".ckpt");
    runner::CheckpointOptions kill;
    kill.path = path;
    kill.every_n_items = 4;
    kill.abort_after_items = 5;
    {
      obs::TraceConfig tc;
      tc.enabled = true;
      tc.per_item_cap = 4096;
      obs::Recorder rec(tc);
      obs::RecorderScope scope(rec);
      EXPECT_THROW(measure::sharded_reliability_trials(
                       scenario_config(), "ER-Telecom",
                       measure::TriggerKind::kSniI, 10, 0x7ab1e1, jobs, kill),
                   runner::CampaignInterrupted);
    }

    runner::CheckpointOptions resume;
    resume.path = path;
    resume.resume = true;
    resume.every_n_items = 4;
    const ScenarioRun resumed = run_reliability(jobs, resume);

    EXPECT_EQ(resumed.flags, baseline.flags);
    EXPECT_EQ(resumed.metrics_json, baseline.metrics_json);
    EXPECT_EQ(resumed.trace_jsonl, baseline.trace_jsonl);
  }
}

}  // namespace
}  // namespace tspu
