// Cancellable timer queue shared by the simulator and the epoll loop: a
// binary min-heap of {at, seq, slot} keys over a slab of callback slots
// with a free list. Sifting moves 24-byte keys, never the callbacks, and
// cancel() is O(1): it frees the slot and leaves the key behind as a
// tombstone that pops skip, because the slot no longer carries its seq.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simnet/context.h"
#include "simnet/time.h"
#include "util/inline_function.h"

namespace mecdns::simnet {

/// Names one scheduled event for cancel(). kNoEvent is never issued.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Runs events in (at, seq) order: by deadline, equal deadlines in push
/// order. Each event carries the ambient TraceToken captured at push time.
class EventQueue {
 public:
  /// Move-only with a 192-byte inline buffer, so the lambdas the layers
  /// schedule (a Packet, a few values) never touch the heap.
  using Callback = util::InlineFunction<void(), 192>;

  struct Event {
    SimTime at;
    TraceToken trace;
    Callback fn;
  };

  EventId push(SimTime at, Callback fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (slots_.size() == kSlotMask) throw std::length_error("event slots");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    const std::uint64_t seq = next_seq_++;
    Slot& s = slots_[slot];
    s.seq = seq;
    s.trace = current_trace_token();
    s.fn = std::move(fn);
    heap_.push_back(Key{at, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++live_;
    // The id packs the slot (+1, so no id is 0) under the seq's low bits:
    // a stale id matches its slot again only 2^40 pushes later.
    return ((seq & kSeqMask) << kSlotBits) | (slot + 1);
  }

  /// Destroys the event's callback if `id` still names a pending event and
  /// returns true. A fired, cancelled or never-issued id is a no-op, and a
  /// stale id never cancels a later event that reuses its slot.
  bool cancel(EventId id) {
    const std::uint64_t slot = (id & kSlotMask) - 1;  // id 0 wraps: no slot
    if (slot >= slots_.size() || slots_[slot].seq == kFree ||
        (slots_[slot].seq & kSeqMask) != id >> kSlotBits) {
      return false;
    }
    // Destroy the callback after the bookkeeping: its captures' destructors
    // may push or cancel events themselves.
    const Callback doomed = std::move(slots_[slot].fn);
    release(static_cast<std::uint32_t>(slot));
    return true;
  }

  /// Deadline of the earliest pending event, SimTime::max() if none.
  SimTime next_at() {
    skip_cancelled();
    return heap_.empty() ? SimTime::max() : heap_.front().at;
  }

  /// Removes and returns the earliest pending event. Requires !empty().
  Event pop() {
    skip_cancelled();
    const Key key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    Slot& slot = slots_[key.slot];
    Event event{key.at, slot.trace, std::move(slot.fn)};
    release(key.slot);
    return event;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }  ///< neither fired nor cancelled

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqMask = ~std::uint64_t{0} >> kSlotBits;
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint64_t seq = kFree;
    TraceToken trace;
    Callback fn;
  };

  static bool later(const Key& a, const Key& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  void skip_cancelled() {
    while (!heap_.empty() &&
           slots_[heap_.front().slot].seq != heap_.front().seq) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
    }
  }

  void release(std::uint32_t slot) {
    slots_[slot].seq = kFree;
    free_.push_back(slot);
    --live_;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace mecdns::simnet
