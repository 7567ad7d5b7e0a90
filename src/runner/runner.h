// Deterministic sharded execution of independent simulation work items.
//
// The paper's measurements are embarrassingly parallel: every endpoint probe,
// domain test, and reliability trial runs against its own miniature internet.
// The runner exploits that by giving each of K worker threads a private
// replica of the world (rebuilt from the same config + seed, so replicas are
// identical) and assigning items round-robin: item i runs on shard i % K.
//
// Determinism contract: a work item's result may depend only on (a) the
// replica's configuration and seed, and (b) the item's own index/seed — never
// on which items ran before it on the same replica. Callers enforce (b) with
// topo::World::begin_trial(); the runner then guarantees the merged
// result vector is bit-identical for every K, including K=1, because slot i
// is written only by the shard that owns item i and shards never share state.
//
// This is the only place in src/ allowed to touch threads: tspulint's
// raw-thread rule keeps ad-hoc concurrency (and with it nondeterminism) out
// of the simulation and measurement layers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace tspu::runner {

/// Number of worker threads the hardware supports (always >= 1).
int hardware_jobs();

/// Resolves a requested job count: values <= 0 mean "use hardware_jobs()";
/// positive values are taken as-is (oversubscription is allowed — results
/// do not depend on the count).
int effective_jobs(int requested);

/// Deterministic per-item seed: splitmix64 of (root, index), so neighboring
/// items get uncorrelated RNG streams and item i's seed never depends on how
/// many items ran before it.
std::uint64_t item_seed(std::uint64_t root, std::uint64_t index);

namespace detail {

/// Runs body(shard) on `jobs` worker threads and joins them all; with
/// jobs == 1 the body runs inline on the calling thread. Exceptions are
/// captured per shard and the lowest shard's exception is rethrown after
/// the join, so error reporting is deterministic too.
void run_shards(int jobs, const std::function<void(int shard)>& body);

/// Emplace adapter: lets std::optional<Ctx>::emplace build a non-movable
/// context in place via guaranteed copy elision of make(shard)'s return.
template <typename Make, typename Ctx>
struct CtxEmplacer {
  Make& make;
  int shard;
  operator Ctx() && { return make(shard); }  // NOLINT: implicit by design
};

/// The shard loop behind shard_map and checkpointed_map: per-shard
/// replicas, per-shard child recorders, the result slots, and the
/// shard-order merge. Callers fill every slot by running consecutive waves
/// up to n_items (checkpointed_map may first reload a completed prefix
/// from a snapshot), then call finish().
///
/// Item i always runs on shard i % jobs, and each shard runs its items in
/// increasing index order against the context make_ctx(shard), built on
/// that shard's own thread in the first wave. The wave that ends at
/// n_items is the last: each shard then destroys its replica on its own
/// thread, so K world teardowns overlap instead of running one after the
/// other on the caller.
///
/// make_ctx must build the context in its return statement (guaranteed
/// copy elision covers non-movable worlds like topo::NationalTopology);
/// wrap multi-step setup in a struct of unique_ptrs if needed.
template <typename MakeCtx, typename Fn>
struct ShardLoop {
  using Ctx = std::invoke_result_t<MakeCtx&, int>;
  using Result = std::invoke_result_t<Fn&, Ctx&, std::size_t>;
  static_assert(!std::is_void_v<Result>,
                "shard_map items must return a value to merge");

  // Never more shards than items: each shard builds a full world replica,
  // which is the expensive part.
  ShardLoop(std::size_t n, int jobs_requested, MakeCtx& make, Fn& item_fn)
      : n_items(n),
        jobs(static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(effective_jobs(jobs_requested)), n))),
        make_ctx(make),
        fn(item_fn),
        slots(n),
        children(static_cast<std::size_t>(jobs)),
        contexts(static_cast<std::size_t>(jobs)) {}

  /// Runs items [begin, end) on every shard and joins.
  void run_wave(std::size_t begin, std::size_t end) {
    const std::size_t uj = static_cast<std::size_t>(jobs);
    run_shards(jobs, [&](int shard) {
      const auto us = static_cast<std::size_t>(shard);
      // Flight recorder: each shard records into a private child recorder.
      // Replica construction is muted: jobs=K builds K replicas, so its
      // events are inherently K-dependent.
      std::optional<obs::RecorderScope> scope;
      if (parent != nullptr) {
        if (!children[us]) {
          children[us] = std::make_unique<obs::Recorder>(parent->config());
        }
        scope.emplace(*children[us]);
      }
      if (!contexts[us]) {
        obs::MuteGuard mute;
        contexts[us].emplace(CtxEmplacer<MakeCtx, Ctx>{make_ctx, shard});
      }
      // The first index at or after `begin` that this shard owns.
      for (std::size_t i = begin + (us + uj - begin % uj) % uj; i < end;
           i += uj) {
        obs::begin_item(i);
        slots[i].emplace(fn(*contexts[us], i));
      }
      if (end == n_items) contexts[us].reset();
    });
  }

  /// Merges the child recorders into the caller's in shard order and
  /// returns the results in item order. Counters merge by commutative sums
  /// and trace items are disjoint, so the merged snapshot is identical for
  /// every job count.
  std::vector<Result> finish() {
    if (parent != nullptr) {
      for (std::unique_ptr<obs::Recorder>& child : children) {
        if (child) parent->merge_from(std::move(*child));
      }
    }
    std::vector<Result> out;
    out.reserve(n_items);
    for (std::optional<Result>& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  const std::size_t n_items;
  const int jobs;
  MakeCtx& make_ctx;
  Fn& fn;
  obs::Recorder* const parent = obs::recorder();
  std::vector<std::optional<Result>> slots;
  std::vector<std::unique_ptr<obs::Recorder>> children;
  std::vector<std::optional<Ctx>> contexts;
};

}  // namespace detail

/// Runs fn(ctx, i) for every i in [0, n_items) on `jobs` shards (jobs <= 0
/// selects hardware concurrency), each shard against its own context
/// make_ctx(shard) (see detail::ShardLoop). Returns results in item-index
/// order.
template <typename MakeCtx, typename Fn>
auto shard_map(std::size_t n_items, int jobs, MakeCtx&& make_ctx, Fn&& fn) {
  detail::ShardLoop<MakeCtx, Fn> loop(n_items, jobs, make_ctx, fn);
  if (n_items != 0) loop.run_wave(0, n_items);
  return loop.finish();
}

/// Context-free variant for items that carry all their state: fn(i).
template <typename Fn>
auto parallel_map(std::size_t n_items, int jobs, Fn&& fn) {
  return shard_map(n_items, jobs, [](int) { return 0; },
                   [&fn](int&, std::size_t i) { return fn(i); });
}

}  // namespace tspu::runner
