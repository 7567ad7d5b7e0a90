#include "tspu/budget.h"

#include "obs/obs.h"
#include "util/check.h"

namespace tspu::core {
namespace {

/// The recorder names of one table's saturation series.
struct SaturationNames {
  const char* occupancy;
  const char* overload_enter;
  const char* overload_exit;
  const char* rejected;
  const char* reject_event;
};

constexpr SaturationNames kConntrackNames{
    "tspu.conntrack.occupancy", "tspu.conntrack.overload.enter",
    "tspu.conntrack.overload.exit", "tspu.conntrack.rejected", "conn.reject"};
constexpr SaturationNames kFragNames{
    "tspu.frag.occupancy", "tspu.frag.overload.enter",
    "tspu.frag.overload.exit", "tspu.frag.rejected", "frag.reject"};

const SaturationNames& names(obs::Layer layer) {
  return layer == obs::Layer::kFrag ? kFragNames : kConntrackNames;
}

}  // namespace

void BudgetGuard::publish(std::size_t occupancy, util::Instant now) {
  const SaturationNames& n = names(layer_);
  obs::Recorder* rec = obs::recorder();
  if (rec != nullptr) {
    rec->metrics.gauge(n.occupancy)
        .set_max(static_cast<std::int64_t>(occupancy));
  }
  if (budget_.max_entries == 0) return;
  const double frac = static_cast<double>(occupancy) /
                      static_cast<double>(budget_.max_entries);
  const bool flips = overloaded_ ? frac <= overload_.exit_fraction
                                 : frac >= overload_.enter_fraction;
  if (!flips) return;
  overloaded_ = !overloaded_;
  if (rec != nullptr) {
    rec->metrics.counter(overloaded_ ? n.overload_enter : n.overload_exit)
        .add();
  }
  if (obs::tracing()) {
    obs::trace_event(layer_, overloaded_ ? "overload.enter" : "overload.exit",
                     now, {}, fraction(occupancy));
  }
}

void BudgetGuard::reject(util::Instant now, std::size_t occupancy,
                         const char* reason) {
  const SaturationNames& n = names(layer_);
  if (obs::Recorder* rec = obs::recorder()) {
    rec->metrics.counter(n.rejected).add();
  }
  if (obs::tracing()) {
    obs::trace_event(layer_, n.reject_event, now, {},
                     reason != nullptr ? reason : fraction(occupancy));
  }
}

void BudgetGuard::audit(std::size_t entries, std::size_t bytes) const {
  if (budget_.max_entries != 0) {
    TSPU_AUDIT(entries <= budget_.max_entries,
               "table occupancy exceeds the entry budget");
  }
  if (budget_.max_bytes != 0) {
    TSPU_AUDIT(bytes <= budget_.max_bytes,
               "table bytes exceed the byte budget");
  }
}

std::string BudgetGuard::fraction(std::size_t occupancy) const {
  return std::to_string(occupancy) + "/" +
         std::to_string(budget_.max_entries);
}

}  // namespace tspu::core
