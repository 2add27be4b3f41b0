// SlotPool: reusable records that never move, addressed by index.
//
// A record lives in a deque (growing never relocates an element), so it is
// built once and a reference to it stays valid while other slots come and
// go; released slots are recycled through a free list. Hot paths keep a
// 32-bit index where they would otherwise move the record (an in-flight
// query, a transaction) into a closure or a hash map.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

namespace mecdns::util {

template <typename T>
class SlotPool {
 public:
  /// A free slot, or a new default-constructed one. A recycled slot holds
  /// whatever its last user left in it.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  void release(std::uint32_t slot) { free_.push_back(slot); }

  T& operator[](std::uint32_t slot) { return slots_[slot]; }
  const T& operator[](std::uint32_t slot) const { return slots_[slot]; }

  /// Calls `fn` on every slot, free or in use — how an owner's destructor
  /// cancels the timer each slot keeps (a free slot's id is stale, and
  /// cancelling it is a no-op).
  template <typename F>
  void for_each(F&& fn) {
    for (T& record : slots_) fn(record);
  }

 private:
  std::deque<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace mecdns::util
