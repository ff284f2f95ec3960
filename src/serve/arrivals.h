// Open-loop arrival streams for the serving harness.
//
// The ROADMAP's serving-mode north star needs traffic that looks like
// "millions of users" rather than a closed bench loop: a diurnal baseline
// (reusing trace/diurnal's Fig. 14 shape), short bursty rate excursions,
// and rare flash-crowd events that multiply the arrival rate for minutes.
// The generator composes the three into one time-varying rate
//
//   lambda(t) = peak_rate * diurnal_level(t) * burst_factor(t)
//               * flash_factor(t)
//
// and draws an inhomogeneous Poisson process from it by Lewis-Shedler
// thinning against the precomputed rate ceiling.
//
// Determinism contract (docs/DETERMINISM.md): one seed expands into three
// dedicated Rng::split streams — flash-crowd placement, burst timeline,
// arrival thinning — consumed in fixed construction order. The burst and
// flash timelines are materialized up front, so rate_at()/integrated_rate()
// are pure functions of the config and the stream of arrival times is
// byte-identical for any `--threads` value (generation is serial; the
// planner's worker count never touches these streams).
#pragma once

#include <vector>

#include "trace/diurnal.h"
#include "util/rng.h"
#include "util/types.h"

namespace eprons {

/// Markov-modulated burst noise: the rate is multiplied by `multiplier`
/// while a burst is on; on/off dwell times are exponential.
struct BurstNoiseConfig {
  bool enabled = true;
  /// Rate multiplier while a burst is active (>= 1).
  double multiplier = 1.8;
  /// Mean burst duration, us.
  SimTime mean_on = sec(20.0);
  /// Mean gap between bursts, us.
  SimTime mean_off = sec(120.0);
};

/// Flash crowds: rare events that ramp the rate up to `magnitude` x the
/// baseline, hold it, then ramp back down. The envelope is piecewise
/// linear, so the composed rate integrates exactly (integrated_rate()).
struct FlashCrowdConfig {
  bool enabled = true;
  /// Expected events per modeled hour (the count is Poisson over the
  /// horizon; 0 disables without touching the stream split order).
  double events_per_hour = 1.0;
  /// Peak multiplier drawn from a bounded Pareto on [min, max].
  double magnitude_min = 3.0;
  double magnitude_max = 8.0;
  double magnitude_alpha = 1.5;
  /// Linear ramp-up / full-magnitude hold / linear ramp-down, us.
  SimTime ramp = sec(30.0);
  SimTime hold = sec(90.0);
  SimTime decay = sec(180.0);
};

struct ArrivalStreamConfig {
  /// Modeled serving horizon, us (next() returns kNoTime past it).
  SimTime horizon = sec(7200.0);
  /// Arrival rate at the diurnal peak (burst/flash factors at 1),
  /// queries per second. Must be finite and >= 0 (0 yields no arrivals);
  /// ArrivalGenerator throws std::invalid_argument otherwise.
  double peak_rate_qps = 40.0;
  /// Diurnal baseline shape; search_trough/search_peak bound the level and
  /// the noiseless minute-level shape is evaluated directly (noise is the
  /// burst process's job here).
  DiurnalTraceConfig diurnal;
  /// Offset into the diurnal day at t = 0, us (e.g. start mid-morning).
  SimTime diurnal_start = 0.0;
  BurstNoiseConfig burst;
  FlashCrowdConfig flash;
  std::uint64_t seed = 1;
};

/// One placed flash-crowd event (piecewise-linear envelope).
struct FlashCrowdEvent {
  SimTime start = 0.0;
  SimTime ramp = 0.0;
  SimTime hold = 0.0;
  SimTime decay = 0.0;
  /// Peak rate multiplier at full envelope (>= 1).
  double magnitude = 1.0;

  SimTime end() const { return start + ramp + hold + decay; }
  /// Envelope value in [0, 1] at absolute time `t`.
  double envelope(SimTime t) const;
};

class ArrivalGenerator {
 public:
  explicit ArrivalGenerator(const ArrivalStreamConfig& config);

  /// Next arrival time (strictly increasing), or kNoTime once the horizon
  /// is exhausted.
  SimTime next();

  /// Instantaneous arrival rate, queries per us. Pure function of the
  /// config (timelines are fixed at construction).
  double rate_at(SimTime t) const;

  /// Exact integral of rate_at over [a, b] (expected arrivals in the
  /// window): the rate is piecewise linear between breakpoints, so the
  /// midpoint rule per piece is exact.
  double integrated_rate(SimTime a, SimTime b) const;

  /// The thinning ceiling, queries per us (rate_at(t) <= max_rate()).
  double max_rate() const { return max_rate_; }

  const ArrivalStreamConfig& config() const { return config_; }
  /// Placed flash-crowd events, sorted by start time.
  const std::vector<FlashCrowdEvent>& flash_events() const {
    return flash_events_;
  }
  /// Burst on/off toggle times: bursts are active on
  /// [toggles[2i], toggles[2i+1]).
  const std::vector<SimTime>& burst_toggles() const { return burst_toggles_; }

 private:
  /// Diurnal level in [search_trough, search_peak] at absolute time `t`
  /// (piecewise constant per trace minute).
  double diurnal_level(SimTime t) const;
  double burst_factor(SimTime t) const;
  double flash_factor(SimTime t) const;
  /// Sorted breakpoints of the piecewise-linear rate within [a, b].
  void collect_breakpoints(SimTime a, SimTime b,
                           std::vector<SimTime>* out) const;

  ArrivalStreamConfig config_;
  std::vector<FlashCrowdEvent> flash_events_;
  std::vector<SimTime> burst_toggles_;
  double max_rate_ = 0.0;  // queries per us
  Rng thin_rng_;
  SimTime t_ = 0.0;
  bool exhausted_ = false;
};

}  // namespace eprons
