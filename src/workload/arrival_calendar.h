// Pending per-UE arrivals in (time, ue) order, for populations of 10^6.
//
// A workload seeds every UE's first arrival at once and then pops them in
// time order, pushing a few follow-ups as it goes. A binary heap over all
// of them pays ~20 cache-missing sift levels per pop. The calendar instead
// counting-sorts the seeded bulk into one flat array of time buckets (about
// two arrivals per bucket) and sorts a bucket only when the cursor reaches
// it; later pushes go to a small side min-heap. pop() takes the smaller
// (time, ue) head of the two, so the sequence is exactly the one a single
// min-heap on (time, ue) would produce.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace mecdns::workload {

/// Allocates straight from the OS with mmap and returns pages with munmap.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept { ::munmap(p, n * sizeof(T)); }
  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

/// `Arrival` is an aggregate with `std::int64_t at_nanos` and
/// `std::uint32_t ue`; (at_nanos, ue) must be unique among pending entries.
template <typename Arrival>
class ArrivalCalendar {
 public:
  /// The arrivals load() takes, in whole pages that go back to the OS when
  /// freed: a malloc may keep a freed block of this size resident, which
  /// would cost as much memory as the calendar itself.
  using Seed = std::vector<Arrival, PageAllocator<Arrival>>;

  /// Replaces the contents with `arrivals` (any order, each at a time in
  /// [begin, end)), counting-sorted into time buckets of about two
  /// arrivals each.
  void load(Seed arrivals, std::int64_t begin, std::int64_t end) {
    side_.clear();
    pos_ = sorted_end_ = 0;
    size_ = arrivals.size();
    flat_.reset();
    if (size_ == 0) return;
    begin_ = begin;
    last_bucket_ = std::max<std::size_t>(1, size_ / 2) - 1;
    // Buckets per nanosecond. Any scale keeps bucket_of() monotone in time,
    // which is all the order needs.
    scale_ = static_cast<double>(last_bucket_ + 1) /
             static_cast<double>(std::max<std::int64_t>(1, end - begin));
    // Count per bucket, turn the counts into write cursors, scatter. The
    // stores are independent, so they overlap in flight.
    std::vector<std::uint32_t, PageAllocator<std::uint32_t>> cursors(
        last_bucket_ + 1, 0);
    for (const Arrival& a : arrivals) ++cursors[bucket_of(a)];
    std::uint32_t next = 0;
    for (std::uint32_t& c : cursors) next = std::exchange(c, next) + next;
    flat_.reset(new Arrival[size_]);  // every element is written below
    for (const Arrival& a : arrivals) flat_[cursors[bucket_of(a)]++] = a;
    // Room for as many later pushes as loaded arrivals, so growing the side
    // heap leaves no freed buffers behind; pages it never reaches are never
    // touched.
    side_.reserve(size_);
  }

  /// Adds an arrival after load(): it waits in the side heap.
  void push(const Arrival& arrival) {
    side_.push_back(arrival);
    std::push_heap(side_.begin(), side_.end(), later);
  }

  bool empty() const { return pos_ == size_ && side_.empty(); }

  /// The earliest pending arrival. Requires !empty().
  const Arrival& top() {
    const Arrival* flat = flat_head();
    if (flat == nullptr) return side_.front();
    if (side_.empty() || later(side_.front(), *flat)) return *flat;
    return side_.front();
  }

  /// Removes and returns the earliest pending arrival. Requires !empty().
  Arrival pop() {
    const Arrival* flat = flat_head();
    if (flat != nullptr && (side_.empty() || later(side_.front(), *flat))) {
      ++pos_;
      return *flat;
    }
    std::pop_heap(side_.begin(), side_.end(), later);
    const Arrival arrival = side_.back();
    side_.pop_back();
    return arrival;
  }

 private:
  static bool later(const Arrival& a, const Arrival& b) {
    return a.at_nanos != b.at_nanos ? a.at_nanos > b.at_nanos : a.ue > b.ue;
  }

  std::size_t bucket_of(const Arrival& a) const {
    const double b = static_cast<double>(a.at_nanos - begin_) * scale_;
    return std::min(static_cast<std::size_t>(std::max(b, 0.0)), last_bucket_);
  }

  /// The earliest unread flat arrival; nullptr when all are read. On
  /// reaching a bucket (its arrivals are adjacent), sorts it.
  const Arrival* flat_head() {
    if (pos_ == size_) return nullptr;
    if (pos_ == sorted_end_) {
      const std::size_t bucket = bucket_of(flat_[pos_]);
      do {
        ++sorted_end_;
      } while (sorted_end_ < size_ && bucket_of(flat_[sorted_end_]) == bucket);
      std::sort(&flat_[pos_], &flat_[0] + sorted_end_,
                [](const Arrival& a, const Arrival& b) { return later(b, a); });
    }
    return &flat_[pos_];
  }

  std::unique_ptr<Arrival[]> flat_;   ///< loaded arrivals, bucket by bucket
  std::size_t size_ = 0;              ///< loaded count
  std::size_t pos_ = 0;               ///< next unread flat arrival
  std::size_t sorted_end_ = 0;        ///< end of the bucket being read
  std::int64_t begin_ = 0;            ///< start of the loaded time range
  double scale_ = 0.0;                ///< buckets per nanosecond
  std::size_t last_bucket_ = 0;
  std::vector<Arrival> side_;         ///< min-heap of later pushes
};

}  // namespace mecdns::workload
