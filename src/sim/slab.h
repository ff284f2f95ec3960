// Index-handle object pool for the DES hot path.
//
// put() parks a value in a reused slot and returns the slot's 32-bit
// index; take() moves the value out and frees the slot. An event closure
// can then carry `this` plus one slot index instead of its payload, which
// keeps the closure inside std::function's inline storage. Once the pool
// has grown to its high-water size, put/take allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace eprons {

template <typename T>
class Slab {
 public:
  std::uint32_t put(T value) {
    if (free_.empty()) {
      items_.push_back(std::move(value));
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    items_[slot] = std::move(value);
    return slot;
  }

  /// Moves the value out of `slot` (which must be occupied) and frees it.
  T take(std::uint32_t slot) {
    T value = std::move(items_[slot]);
    free_.push_back(slot);
    return value;
  }

  /// The value in `slot`: the parked one, or a free slot's last value.
  T& operator[](std::uint32_t slot) { return items_[slot]; }
  /// Frees `slot`, leaving its value in place until the slot is reused.
  void erase(std::uint32_t slot) { free_.push_back(slot); }

  /// Occupied slots.
  std::size_t size() const { return items_.size() - free_.size(); }
  /// Slots ever used, occupied or free: every slot index is below it.
  std::size_t capacity() const { return items_.size(); }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;  // vacant slots, reused LIFO
};

}  // namespace eprons
