#include "workload/zipf.h"

#include <cmath>
#include <stdexcept>

namespace mecdns::workload {

ZipfGenerator::ZipfGenerator(std::size_t n, double s) : s_(s) {
  if (n == 0) throw std::invalid_argument("Zipf over empty support");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& v : cdf_) v /= total;
}

std::size_t ZipfGenerator::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  // Binary search the CDF.
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

RequestGenerator::RequestGenerator(const cdn::ContentCatalog& catalog,
                                   double zipf_s, std::uint64_t seed)
    : zipf_(catalog.size() == 0 ? 1 : catalog.size(), zipf_s), rng_(seed) {
  urls_.reserve(catalog.size());
  for (const auto& [url, object] : catalog.objects()) {
    urls_.push_back(url);
  }
  if (urls_.empty()) {
    throw std::invalid_argument("RequestGenerator over empty catalog");
  }
}

const cdn::Url& RequestGenerator::next() {
  return urls_[zipf_.sample(rng_) % urls_.size()];
}

}  // namespace mecdns::workload
