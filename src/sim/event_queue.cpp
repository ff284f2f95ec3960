#include "sim/event_queue.h"

#include <utility>

namespace eprons {
namespace {

constexpr std::size_t kArity = 4;

}  // namespace

void EventQueue::schedule(SimTime when, Callback callback) {
  // Clamps to now_ also when == now_ (turning a -0.0 into now_'s +0.0)
  // and NaN, so every key time is a non-negative double (Key::order).
  if (!(when > now_)) when = now_;
  const std::uint32_t slot = callbacks_.put(std::move(callback));
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{when, next_seq_++, slot});
  if (heap_.size() > high_water_) high_water_ = heap_.size();
}

void EventQueue::schedule_in(SimTime delay, Callback callback) {
  schedule(now_ + (delay > 0.0 ? delay : 0.0), std::move(callback));
}

void EventQueue::sift_up(std::size_t hole, Key key) {
  const unsigned __int128 order = key.order();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (order >= heap_[parent].order()) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

// Re-inserts `key` from the root after the root was removed (heap_ already
// shrunk by one).
void EventQueue::sift_down(Key key) {
  const unsigned __int128 order = key.order();
  const std::size_t size = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t last = first + kArity < size ? first + kArity : size;
    // Earliest child, selected with conditional moves: which child wins
    // is data-dependent, so a branch here mispredicts often.
    std::size_t best = first;
    unsigned __int128 best_order = heap_[first].order();
    for (std::size_t c = first + 1; c < last; ++c) {
      const unsigned __int128 child = heap_[c].order();
      const bool earlier = child < best_order;
      best = earlier ? c : best;
      best_order = earlier ? child : best_order;
    }
    if (best_order >= order) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = key;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  const Key tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(tail);
  // Move the closure out before running it: the callback may schedule
  // events, which can reuse this slot or grow the slab.
  Callback callback = callbacks_.take(top.slot);
  now_ = top.when;
  ++executed_;
  callback();
  return true;
}

void EventQueue::run_until(SimTime end) {
  while (!heap_.empty() && heap_.front().when <= end) {
    step();
  }
  if (now_ < end) now_ = end;
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace eprons
