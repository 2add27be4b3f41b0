// Zipf-distributed content popularity and request generation.
//
// CDN object popularity is classically Zipfian. bench_micro and perfbench's
// provider workloads draw their name streams from ZipfGenerator.
#pragma once

#include <cstdint>
#include <vector>

#include "cdn/content.h"
#include "util/rng.h"

namespace mecdns::workload {

/// Samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s.
class ZipfGenerator {
 public:
  ZipfGenerator(std::size_t n, double s);

  std::size_t sample(util::Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }
  double skew() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;
};

/// Draws URLs from a catalog by Zipf popularity (catalog iteration order
/// defines the rank order).
class RequestGenerator {
 public:
  RequestGenerator(const cdn::ContentCatalog& catalog, double zipf_s,
                   std::uint64_t seed);

  const cdn::Url& next();
  std::size_t distinct() const { return urls_.size(); }

 private:
  std::vector<cdn::Url> urls_;
  ZipfGenerator zipf_;
  util::Rng rng_;
};

}  // namespace mecdns::workload
