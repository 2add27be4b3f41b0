#include "core/parallel.h"

#include <atomic>
#include <thread>

namespace mecdns::core {

std::uint64_t split_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t resolve_workers(std::int64_t flag) {
  if (flag >= 1) return static_cast<std::size_t>(flag);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ParallelCampaign::ParallelCampaign(std::size_t workers)
    : workers_(workers == 0 ? resolve_workers(0) : workers) {}

void ParallelCampaign::run_indexed(
    std::size_t jobs, const std::function<void(std::size_t)>& body) const {
  const std::size_t workers = std::min(workers_, jobs);
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) body(i);
    return;
  }
  // Ticket dispatch: indices are handed out in order; completion order is
  // irrelevant because each job writes only its own slot.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&next, &body, jobs] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs) return;
        body(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace mecdns::core
