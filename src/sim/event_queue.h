// Discrete-event simulation core: a time-ordered event queue.
//
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic
// for a fixed seed — a hard requirement for reproducible experiments.
//
// Layout: a 4-ary min-heap of plain {when, seq, slot} keys orders the
// events; the callbacks themselves live in a slab of reused std::function
// slots (with a free list), so sifting moves 24-byte keys instead of
// closures. A closure that is trivially copyable and at most 16 bytes
// (e.g. `this` plus one 64-bit id) is stored inside its std::function, so
// once the heap, the slab and the free list have reached their high-water
// sizes, scheduling and dispatching such events allocates nothing.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/slab.h"
#include "util/types.h"

namespace eprons {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `callback` at absolute time `when` (>= now; earlier times
  /// are clamped to now to tolerate round-off in callers).
  void schedule(SimTime when, Callback callback);
  /// Schedules `callback` `delay` after now.
  void schedule_in(SimTime delay, Callback callback);

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Runs the earliest event; returns false if none remain.
  bool step();

  /// Runs events until the queue empties or the next event is after `end`;
  /// `now()` is left at min(end, last event time... ) — precisely: at the
  /// last executed event, or `end` if execution reached it.
  void run_until(SimTime end);

  /// Runs everything (use only with workloads that naturally terminate).
  void run_all();

  // Deterministic work counters (functions of the event sequence alone).
  /// Events dispatched so far.
  std::uint64_t events_executed() const { return executed_; }
  /// Dispatched events their owner reported as stale (a completion whose
  /// epoch a later DVFS decision superseded).
  std::uint64_t events_superseded() const { return superseded_; }
  /// Largest number of simultaneously pending events.
  std::size_t heap_high_water() const { return high_water_; }
  /// Called by an event's owner when the event turned out to be stale.
  void count_superseded() { ++superseded_; }

 private:
  struct Key {
    SimTime when;  // never negative, never -0.0 (see schedule())
    std::uint64_t seq;
    std::uint32_t slot;  // callback's slot in callbacks_

    // (when, seq) as one 128-bit integer: the bits of a non-negative
    // double order like its value, so one integer compare (which the
    // compiler keeps branch-free) orders two keys lexicographically.
    unsigned __int128 order() const {
      return (static_cast<unsigned __int128>(
                  std::bit_cast<std::uint64_t>(when))
              << 64) |
             seq;
    }
  };
  void sift_up(std::size_t hole, Key key);
  void sift_down(Key key);

  std::vector<Key> heap_;  // 4-ary min-heap on (when, seq)
  Slab<Callback> callbacks_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t superseded_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace eprons
