// Capacity budgets and overload policies for the TSPU's per-device state
// tables (conntrack, fragment queues, TCP stream reassembly).
//
// The paper's devices are inline stateful middleboxes serving millions of
// users; their per-flow state cannot actually be unbounded. This header
// makes resource exhaustion a first-class, deterministic failure mode:
//  * TableBudget caps a table's entry count and byte footprint; the default
//    (both zero) is "unbounded" and reproduces the pre-budget device
//    byte-for-byte, including its obs output.
//  * EvictionPolicy selects what happens at capacity: evict the oldest
//    entry, evict a splitmix64-seeded random entry, or reject the new one.
//  * OverloadPolicy picks the device's behavior toward traffic it REJECTED
//    (RejectNew only): fail-open forwards uninspected (forging false-allows,
//    mirroring the fail-open flap semantics in netsim::DeviceFaultPlan) or
//    fail-closed drops (forging false-blocks). Hysteresis — enter at a
//    high-water fraction, exit at a low-water fraction — keeps the verdict
//    stable instead of flapping per packet at the boundary.
//  * BudgetGuard applies one budget to one table; every bounded table
//    publishes its saturation through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "netsim/faults.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace tspu::core {

/// What a full table does with the entry that no longer fits.
enum class EvictionPolicy {
  kEvictOldest,  ///< evict the least-recently-updated entry, admit the new
  kEvictRandom,  ///< evict a uniformly random entry (per-device RNG stream)
  kRejectNew,    ///< keep existing entries; reject the new one (overload)
};

/// Capacity budget for one state table. Zero means "unbounded" on that
/// axis; a default-constructed budget is the pre-budget device.
struct TableBudget {
  std::size_t max_entries = 0;  ///< entry/queue cap (0 = unbounded)
  std::size_t max_bytes = 0;    ///< byte footprint cap (0 = unbounded)
  EvictionPolicy policy = EvictionPolicy::kEvictOldest;

  bool bounded() const { return max_entries != 0 || max_bytes != 0; }
};

/// Device-level response to a rejected admission, plus the hysteresis band
/// for the overload flag. Fractions are of TableBudget::max_entries.
struct OverloadPolicy {
  /// kFailOpen forwards rejected traffic uninspected; kFailClosed eats it.
  netsim::DeviceFailMode mode = netsim::DeviceFailMode::kFailOpen;
  double enter_fraction = 1.0;  ///< overload begins at occupancy >= this
  double exit_fraction = 0.9;   ///< overload ends at occupancy <= this
};

/// Everything one table's budget decides: the budget and overload band, the
/// hysteresis latch, the eviction stream and the victim it picks, and the
/// recorder side of saturation — the `<table>.occupancy` gauge, the
/// `<table>.overload.{enter,exit}` and `<table>.rejected` counters, and the
/// overload.enter/overload.exit/<conn|frag>.reject trace events. The table
/// keeps its containers and calls in on every occupancy change, refused
/// admission and eviction. Holds no heap: the recorder names are static,
/// selected by the table's trace layer.
class BudgetGuard {
 public:
  /// `layer` is the table's trace layer (kConntrack or kFrag), which also
  /// names its recorder series; `evict_seed` starts the eviction stream.
  BudgetGuard(obs::Layer layer, TableBudget budget, OverloadPolicy overload,
              std::uint64_t evict_seed)
      : budget_(budget), overload_(overload), evict_rng_(evict_seed),
        layer_(layer) {}

  const TableBudget& budget() const { return budget_; }
  /// Inline on purpose: unbounded tables take this early-out per packet.
  bool bounded() const { return budget_.bounded(); }
  /// True while the hysteresis latch is set (tables with an entry cap
  /// only); the device consults it for its fail-open/fail-closed action.
  bool overloaded() const { return overloaded_; }

  /// Restarts the eviction stream on `seed` and drops the latch, so a work
  /// item's evictions depend only on its own seed (Device::reseed).
  void reseed(std::uint64_t seed) {
    evict_rng_.reseed(seed);
    overloaded_ = false;
  }

  /// Raises the occupancy gauge to `occupancy` and drives the latch: it
  /// sets at enter_fraction of max_entries and clears at exit_fraction.
  /// Each flip ticks one overload.enter/exit counter and traces one event.
  void publish(std::size_t occupancy, util::Instant now);

  /// Counts and traces one refused admission. The trace detail is `reason`
  /// (the budget that refused), or the occupancy as "n/max" without one.
  void reject(util::Instant now, std::size_t occupancy,
              const char* reason = nullptr);

  /// The entry to evict from a full `table`: a draw from the eviction
  /// stream under kEvictRandom, else the first entry in key order with the
  /// smallest `stamp` (the table's last_update or started time).
  template <typename Table, typename Entry, typename Stamp>
  typename Table::iterator victim(Table& table, Stamp Entry::*stamp) {
    auto pick = table.begin();
    if (budget_.policy == EvictionPolicy::kEvictRandom) {
      std::advance(pick, static_cast<std::ptrdiff_t>(evict_rng_.next() %
                                                     table.size()));
      return pick;
    }
    for (auto it = std::next(table.begin()); it != table.end(); ++it) {
      if (it->second.*stamp < pick->second.*stamp) pick = it;
    }
    return pick;
  }

  /// TSPU_AUDIT (Debug builds): admission control runs before every insert
  /// and every erase returns its bytes, so neither `entries` nor `bytes`
  /// may exceed its cap after any simulator event.
  void audit(std::size_t entries, std::size_t bytes) const;

 private:
  std::string fraction(std::size_t occupancy) const;

  TableBudget budget_;
  OverloadPolicy overload_;
  util::Rng evict_rng_;
  obs::Layer layer_;
  bool overloaded_ = false;
};

}  // namespace tspu::core
