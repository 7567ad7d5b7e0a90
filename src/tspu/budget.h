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
#pragma once

#include <cstddef>
#include <cstdint>

#include "netsim/faults.h"

namespace tspu::core {

/// What a full table does with the entry that no longer fits.
enum class EvictionPolicy {
  kEvictOldest,  ///< evict the least-recently-updated entry, admit the new
  kEvictRandom,  ///< evict a uniformly random entry (per-device RNG stream)
  kRejectNew,    ///< keep existing entries; reject the new one (overload)
};

/// Stable lowercase policy name, used in trace events and bench output.
const char* eviction_policy_name(EvictionPolicy p);

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

/// The hysteresis latch: one per budgeted table. update() is called after
/// every occupancy change and reports whether the flag flipped so the table
/// can emit exactly one enter/exit trace event per transition.
class OverloadState {
 public:
  /// Returns true when the overloaded flag changed state.
  bool update(std::size_t occupancy, std::size_t max_entries,
              const OverloadPolicy& policy) {
    if (max_entries == 0) return false;
    const double frac =
        static_cast<double>(occupancy) / static_cast<double>(max_entries);
    if (!overloaded_ && frac >= policy.enter_fraction) {
      overloaded_ = true;
      return true;
    }
    if (overloaded_ && frac <= policy.exit_fraction) {
      overloaded_ = false;
      return true;
    }
    return false;
  }

  bool overloaded() const { return overloaded_; }
  void reset() { overloaded_ = false; }

 private:
  bool overloaded_ = false;
};

}  // namespace tspu::core
