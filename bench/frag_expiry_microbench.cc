// Micro-bench for the FragmentEngine expiry fix: push() used to run a full
// expire(now) sweep per fragment, making a fragmentation scan quadratic in
// the number of in-flight queues. The engine now sweeps lazily (only when
// the oldest queue has actually timed out); this bench drives both cost
// models over the same workload and asserts — via the engine's own stats —
// that every discard counter is identical, i.e. the optimisation changed
// wall time and nothing else.
//
// "eager" is reconstructed by explicitly calling expire(now) before every
// push, which reproduces the removed per-fragment sweep's cost on today's
// engine. TSPU_BENCH_SCALE scales the queue population.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "tspu/frag_engine.h"
#include "tspu/timeouts.h"
#include "util/ip.h"
#include "util/time.h"
#include "wire/fragment.h"
#include "wire/ipv4.h"

using namespace tspu;
using util::Duration;
using util::Instant;

namespace {

// The workload: `queues` interleaved 3-fragment datagrams. Every queue's
// first two fragments arrive up front (so the engine holds `queues`
// concurrent incomplete queues), then a long completion phase pushes the
// closing fragments one by one — the regime where the per-push sweep cost
// dominated. A final batch is left to age past the 5-second timeout so the
// timeout-discard path is exercised too.
std::vector<std::pair<wire::Packet, Instant>> build_workload(int queues) {
  std::vector<std::pair<wire::Packet, Instant>> events;
  events.reserve(static_cast<std::size_t>(queues) * 3);
  const Instant t0;
  std::vector<std::vector<wire::Packet>> frag_sets;
  frag_sets.reserve(static_cast<std::size_t>(queues));
  for (int i = 0; i < queues; ++i) {
    wire::Packet pkt;
    pkt.ip.src = util::Ipv4Addr(10, 0, static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i & 0xff));
    pkt.ip.dst = util::Ipv4Addr(2, 2, 2, 2);
    pkt.ip.id = static_cast<std::uint16_t>(i);
    pkt.ip.ttl = 60;
    pkt.payload.assign(120, 0xab);
    frag_sets.push_back(wire::fragment(pkt, 40));
  }
  Instant t = t0;
  for (int i = 0; i < queues; ++i) {
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][0], t);
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][1], t);
    t = t + Duration::micros(10);
  }
  // Complete the first 90%; the rest age out: their closing fragment
  // arrives 6 s later, after the queue has already timed out.
  const int completed = queues * 9 / 10;
  for (int i = 0; i < completed; ++i) {
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][2], t);
    t = t + Duration::micros(10);
  }
  const Instant late = t + Duration::seconds(6);
  for (int i = completed; i < queues; ++i) {
    events.emplace_back(frag_sets[static_cast<std::size_t>(i)][2], late);
  }
  return events;
}

struct RunResult {
  double wall_seconds = 0;
  core::FragEngineStats stats;
};

RunResult run(const std::vector<std::pair<wire::Packet, Instant>>& events,
              bool eager) {
  core::FragmentEngine engine{core::FragmentTimeouts{}};
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [pkt, t] : events) {
    if (eager) engine.expire(t);  // the removed per-fragment full sweep
    engine.push(pkt, t);
  }
  RunResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.stats = engine.stats();
  return r;
}

}  // namespace

int main() {
  tspu::bench::ScopedRecorder obs_recorder;
  bench::BenchReport report("frag_expiry_microbench");
  const int queues = static_cast<int>(20000 * report.scale());
  bench::banner("frag expiry microbench",
                "lazy vs eager queue-timeout sweeps, " +
                    std::to_string(queues) + " interleaved queues");

  const auto events = build_workload(queues);
  const RunResult eager = run(events, /*eager=*/true);
  const RunResult lazy = run(events, /*eager=*/false);

  // The optimisation's contract: identical observable behavior. Any drift
  // in a discard counter means lazy expiry changed discard timing.
  auto require = [](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FATAL: eager/lazy mismatch: %s\n", what);
      std::exit(1);
    }
  };
  require(eager.stats.queues_released == lazy.stats.queues_released,
          "queues_released");
  require(eager.stats.queues_discarded_timeout ==
              lazy.stats.queues_discarded_timeout,
          "queues_discarded_timeout");
  require(eager.stats.queues_discarded_overlap ==
              lazy.stats.queues_discarded_overlap,
          "queues_discarded_overlap");
  require(eager.stats.queues_discarded_limit ==
              lazy.stats.queues_discarded_limit,
          "queues_discarded_limit");
  require(eager.stats.queues_discarded_overlong ==
              lazy.stats.queues_discarded_overlong,
          "queues_discarded_overlong");
  require(eager.stats.fragments_buffered == lazy.stats.fragments_buffered,
          "fragments_buffered");

  const double speedup =
      lazy.wall_seconds > 0 ? eager.wall_seconds / lazy.wall_seconds : 0;
  std::printf("eager (per-push sweep): %8.3f s\n", eager.wall_seconds);
  std::printf("lazy  (shipped engine): %8.3f s\n", lazy.wall_seconds);
  std::printf("speedup: %.1fx; discards identical "
              "(released=%llu timeout=%llu overlap=%llu limit=%llu)\n",
              speedup,
              static_cast<unsigned long long>(lazy.stats.queues_released),
              static_cast<unsigned long long>(
                  lazy.stats.queues_discarded_timeout),
              static_cast<unsigned long long>(
                  lazy.stats.queues_discarded_overlap),
              static_cast<unsigned long long>(
                  lazy.stats.queues_discarded_limit));

  report.metric("queues", static_cast<long long>(queues));
  report.metric("released", static_cast<long long>(lazy.stats.queues_released));
  report.metric("discard_timeout",
                static_cast<long long>(lazy.stats.queues_discarded_timeout));
  // Wall times are runtime facts, not headline: they vary run to run. Only
  // the behavior counters go into the deterministic section.
  std::fprintf(stderr, "speedup: %.2fx\n", speedup);
  report.write();
  return 0;
}
