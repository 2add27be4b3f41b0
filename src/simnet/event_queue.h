// Cancellable timer queue shared by the simulator and the epoll loop: a
// 4-ary min-heap of {at, seq, slot} keys over callback slots with a free
// list. Sifting moves 24-byte keys, never the callbacks.
//
// A callback is built in its slot, runs in its slot and is destroyed there:
// push() constructs the callable in place and fire_next() invokes it where
// it lies. Slots live in fixed-size blocks that never move, so a running
// callback may schedule any number of events (growing the storage) and
// still read its own captures. cancel() is O(1): it destroys the callback,
// frees the slot and leaves the key behind as a tombstone that pops skip,
// because the slot no longer carries its seq. Once tombstones outnumber
// live keys (plus a small constant) they are swept and the heap rebuilt,
// so the heap stays at the size of the live work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
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

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Destroys every pending callback once. A capture's destructor may
  /// still cancel other events of this queue.
  ~EventQueue() {
    for (std::uint32_t slot = 0; slot < seqs_.size(); ++slot) {
      if (seqs_[slot] == kFree) continue;
      seqs_[slot] = kFree;
      slot_at(slot).fn.reset();
    }
  }

  /// Schedules `fn` at `at`, building the callable directly in its slot (a
  /// Callback is relocated into it, once).
  template <typename F>
  EventId push(SimTime at, F&& fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = grow();
    }
    Slot& s = slot_at(slot);
    try {
      s.fn.emplace(std::forward<F>(fn));
    } catch (...) {
      free_.push_back(slot);
      throw;
    }
    const std::uint64_t seq = next_seq_++;
    seqs_[slot] = seq;
    s.trace = current_trace_token();
    heap_.push_back(Key{at, seq, slot});
    sift_up(heap_.size() - 1);
    ++live_;
    // The id packs the slot (+1, so no id is 0) under the seq's low bits:
    // a stale id matches its slot again only 2^40 pushes later.
    return ((seq & kSeqMask) << kSlotBits) | (slot + 1);
  }

  /// Destroys the event's callback if `id` still names a pending event and
  /// returns true. A fired, cancelled, running or never-issued id is a
  /// no-op, and a stale id never cancels a later event that reuses its slot.
  bool cancel(EventId id) {
    const std::uint64_t slot = (id & kSlotMask) - 1;  // id 0 wraps: no slot
    if (slot >= seqs_.size() || seqs_[slot] == kFree ||
        (seqs_[slot] & kSeqMask) != id >> kSlotBits) {
      return false;
    }
    seqs_[slot] = kFree;
    --live_;
    // Destroy the callback after the bookkeeping, and free the slot after
    // that: its captures' destructors may push or cancel events themselves.
    slot_at(static_cast<std::uint32_t>(slot)).fn.reset();
    free_.push_back(static_cast<std::uint32_t>(slot));
    if (heap_.size() - live_ > live_ + kSweepSlack) sweep();
    return true;
  }

  /// Deadline of the earliest pending event, SimTime::max() if none.
  SimTime next_at() {
    skip_cancelled();
    return heap_.empty() ? SimTime::max() : heap_.front().at;
  }

  /// Runs the earliest pending event: calls `before(at)`, then invokes the
  /// callback in its slot under the TraceToken saved at push time, then
  /// destroys it. The slot is marked free before the call and returned to
  /// the free list after it, so cancelling the running event is a no-op
  /// and no push during the call reuses its slot. Requires !empty().
  template <typename Before>
  void fire_next(Before&& before) {
    skip_cancelled();
    const Key key = heap_.front();
    pop_front();
    seqs_[key.slot] = kFree;
    --live_;
    Slot& slot = slot_at(key.slot);
    // Destroys the callback and frees the slot even if the call throws.
    struct Release {
      EventQueue& queue;
      Slot& slot;
      std::uint32_t index;
      ~Release() {
        slot.fn.reset();
        queue.free_.push_back(index);  // capacity reserved by grow()
      }
    } release{*this, slot, key.slot};
    before(key.at);
    TraceTokenGuard context(slot.trace);
    slot.fn();
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }  ///< neither fired nor cancelled

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqMask = ~std::uint64_t{0} >> kSlotBits;
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  /// Slots per block: blocks never move once allocated.
  static constexpr int kBlockBits = 6;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockBits;
  /// Tombstones tolerated beyond the live key count before a sweep.
  static constexpr std::size_t kSweepSlack = 32;
  /// Children per heap node.
  static constexpr std::size_t kArity = 4;

  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    TraceToken trace;
    Callback fn;
  };

  static bool later(const Key& a, const Key& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  Slot& slot_at(std::uint32_t slot) {
    return blocks_[slot >> kBlockBits][slot & (kBlockSize - 1)];
  }

  /// Adds a block of slots and returns the first; the rest go to the free
  /// list, lowest index on top.
  std::uint32_t grow() {
    const std::size_t first = seqs_.size();
    if (first + kBlockSize > kSlotMask) throw std::length_error("event slots");
    blocks_.push_back(std::make_unique<Slot[]>(kBlockSize));
    seqs_.resize(first + kBlockSize, kFree);
    // A slot is either pending, running or free, so the free list never
    // holds more than every slot: fire_next() can return one without
    // allocating.
    free_.reserve(seqs_.size());
    for (std::uint32_t i = kBlockSize - 1; i > 0; --i) {
      free_.push_back(static_cast<std::uint32_t>(first + i));
    }
    return static_cast<std::uint32_t>(first);
  }

  bool cancelled(const Key& key) const { return seqs_[key.slot] != key.seq; }

  void skip_cancelled() {
    while (!heap_.empty() && cancelled(heap_.front())) pop_front();
  }

  /// Drops every tombstone and rebuilds the heap. (at, seq) is a total
  /// order, so the pop order is the same as before the sweep.
  void sweep() {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Key& k) { return cancelled(k); }),
                heap_.end());
    for (std::size_t i = heap_.size() / kArity + 1; i-- > 0;) sift_down(i);
  }

  void sift_up(std::size_t i) {
    const Key key = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!later(heap_[parent], key)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    if (i >= n) return;
    const Key key = heap_[i];
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (later(heap_[best], heap_[c])) best = c;
      }
      if (!later(key, heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = key;
  }

  void pop_front() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    sift_down(0);
  }

  std::vector<Key> heap_;
  std::vector<std::uint64_t> seqs_;  ///< per slot: pending seq, or kFree
  std::vector<std::uint32_t> free_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace mecdns::simnet
