#include "serve/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace eprons {
namespace {

constexpr double kUsPerSecond = 1.0e6;
constexpr double kUsPerMinute = 60.0e6;

}  // namespace

double FlashCrowdEvent::envelope(SimTime t) const {
  const double dt = t - start;
  if (dt < 0.0 || dt >= ramp + hold + decay) return 0.0;
  if (dt < ramp) return ramp > 0.0 ? dt / ramp : 1.0;
  if (dt < ramp + hold) return 1.0;
  const double into_decay = dt - ramp - hold;
  return decay > 0.0 ? 1.0 - into_decay / decay : 0.0;
}

ArrivalGenerator::ArrivalGenerator(const ArrivalStreamConfig& config)
    : config_(config), thin_rng_(0) {
  // A NaN ceiling would thin forever and a negative one silently serves
  // nothing; zero is a legitimate idle stream.
  if (!std::isfinite(config_.peak_rate_qps) || config_.peak_rate_qps < 0.0) {
    throw std::invalid_argument(
        "peak_rate_qps must be finite and >= 0 (got " +
        std::to_string(config_.peak_rate_qps) + ")");
  }
  // Fixed split order — the determinism contract. Each composed process
  // owns a stream, so toggling one process never perturbs the others.
  Rng base(config_.seed);
  Rng flash_rng = base.split();
  Rng burst_rng = base.split();
  thin_rng_ = base.split();

  if (config_.flash.enabled && config_.flash.events_per_hour > 0.0 &&
      config_.horizon > 0.0) {
    const double hours = config_.horizon / (3600.0 * kUsPerSecond);
    const std::int64_t count =
        flash_rng.poisson(config_.flash.events_per_hour * hours);
    std::vector<SimTime> starts;
    starts.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      starts.push_back(flash_rng.uniform(0.0, config_.horizon));
    }
    std::sort(starts.begin(), starts.end());
    flash_events_.reserve(starts.size());
    for (SimTime start : starts) {
      FlashCrowdEvent event;
      event.start = start;
      event.ramp = config_.flash.ramp;
      event.hold = config_.flash.hold;
      event.decay = config_.flash.decay;
      event.magnitude = flash_rng.bounded_pareto(config_.flash.magnitude_alpha,
                                                 config_.flash.magnitude_min,
                                                 config_.flash.magnitude_max);
      flash_events_.push_back(event);
    }
  }

  if (config_.burst.enabled && config_.burst.multiplier > 1.0) {
    // Alternating off/on dwell times; the walk starts in the off state, so
    // toggles[2i] opens a burst and toggles[2i+1] closes it. A trailing odd
    // toggle means the last burst runs to the horizon.
    SimTime t = 0.0;
    bool on = false;
    while (true) {
      t += burst_rng.exponential(on ? config_.burst.mean_on
                                    : config_.burst.mean_off);
      if (t >= config_.horizon) break;
      burst_toggles_.push_back(t);
      on = !on;
    }
  }

  // Thinning ceiling: every factor at its maximum. Flash excursions are
  // additive in (magnitude - 1), so overlapping events stay under the sum.
  double flash_excess = 0.0;
  for (const FlashCrowdEvent& event : flash_events_) {
    flash_excess += event.magnitude - 1.0;
  }
  const double burst_peak =
      (config_.burst.enabled && config_.burst.multiplier > 1.0)
          ? config_.burst.multiplier
          : 1.0;
  max_rate_ = (config_.peak_rate_qps / kUsPerSecond) *
              config_.diurnal.search_peak * burst_peak * (1.0 + flash_excess);
}

double ArrivalGenerator::diurnal_level(SimTime t) const {
  const double day = config_.diurnal.minutes * kUsPerMinute;
  double pos = std::fmod(t + config_.diurnal_start, day);
  if (pos < 0.0) pos += day;
  const int minute = std::min(config_.diurnal.minutes - 1,
                              static_cast<int>(pos / kUsPerMinute));
  const double shape = diurnal_shape(config_.diurnal, minute);
  return config_.diurnal.search_trough +
         (config_.diurnal.search_peak - config_.diurnal.search_trough) * shape;
}

double ArrivalGenerator::burst_factor(SimTime t) const {
  // Toggles are sorted; an odd number of toggles at or before t means a
  // burst is open.
  const auto it =
      std::upper_bound(burst_toggles_.begin(), burst_toggles_.end(), t);
  const std::size_t crossed =
      static_cast<std::size_t>(it - burst_toggles_.begin());
  return (crossed % 2 == 1) ? config_.burst.multiplier : 1.0;
}

double ArrivalGenerator::flash_factor(SimTime t) const {
  double factor = 1.0;
  for (const FlashCrowdEvent& event : flash_events_) {
    if (event.start > t) break;  // sorted by start
    factor += (event.magnitude - 1.0) * event.envelope(t);
  }
  return factor;
}

double ArrivalGenerator::rate_at(SimTime t) const {
  if (t < 0.0 || t >= config_.horizon) return 0.0;
  return (config_.peak_rate_qps / kUsPerSecond) * diurnal_level(t) *
         burst_factor(t) * flash_factor(t);
}

void ArrivalGenerator::collect_breakpoints(SimTime a, SimTime b,
                                           std::vector<SimTime>* out) const {
  out->clear();
  out->push_back(a);
  out->push_back(b);
  // Diurnal minute boundaries (rate is constant within a minute).
  const double first_minute = std::ceil(a / kUsPerMinute);
  for (double m = first_minute; m * kUsPerMinute < b; m += 1.0) {
    out->push_back(m * kUsPerMinute);
  }
  for (SimTime toggle : burst_toggles_) {
    if (toggle > a && toggle < b) out->push_back(toggle);
  }
  for (const FlashCrowdEvent& event : flash_events_) {
    const SimTime edges[4] = {event.start, event.start + event.ramp,
                              event.start + event.ramp + event.hold,
                              event.end()};
    for (SimTime edge : edges) {
      if (edge > a && edge < b) out->push_back(edge);
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

double ArrivalGenerator::integrated_rate(SimTime a, SimTime b) const {
  a = std::max(a, 0.0);
  b = std::min(b, config_.horizon);
  if (b <= a) return 0.0;
  std::vector<SimTime> points;
  collect_breakpoints(a, b, &points);
  // Between consecutive breakpoints every factor is constant except the
  // flash envelopes, which are linear — so the rate is linear and the
  // midpoint rule is exact. Midpoints are strictly inside each piece, which
  // also sidesteps step-factor ambiguity at the breakpoints themselves.
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const SimTime lo = points[i];
    const SimTime hi = points[i + 1];
    const SimTime mid = lo + (hi - lo) / 2.0;
    total += rate_at(mid) * (hi - lo);
  }
  return total;
}

SimTime ArrivalGenerator::next() {
  if (exhausted_) return kNoTime;
  // Lewis-Shedler thinning: candidate gaps from the homogeneous ceiling
  // process, accepted with probability rate(t)/max_rate.
  while (true) {
    if (max_rate_ <= 0.0) {
      exhausted_ = true;
      return kNoTime;
    }
    t_ += thin_rng_.exponential(1.0 / max_rate_);
    if (t_ >= config_.horizon) {
      exhausted_ = true;
      return kNoTime;
    }
    if (thin_rng_.uniform() * max_rate_ < rate_at(t_)) return t_;
  }
}

}  // namespace eprons
