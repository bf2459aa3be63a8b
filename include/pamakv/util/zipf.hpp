// Distribution samplers used by the synthetic workload generators.
#pragma once

#include <cstdint>
#include <vector>

#include "pamakv/util/rng.hpp"

namespace pamakv {

/// Zipf(α) sampler over ranks {0, 1, ..., n-1} where rank 0 is the most
/// popular. Uses the rejection-inversion method of Hörmann & Derflinger,
/// which is O(1) per sample and exact for any α > 0, so key spaces of tens
/// of millions cost no table space.
class ZipfSampler {
 public:
  /// n: number of distinct ranks; alpha: skew (Facebook KV workloads are
  /// commonly fit with α in [0.9, 1.2]).
  ZipfSampler(std::uint64_t n, double alpha);

  [[nodiscard]] std::uint64_t Sample(Rng& rng) const;

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  [[nodiscard]] double H(double x) const;
  [[nodiscard]] double HInverse(double x) const;

  std::uint64_t n_;
  double alpha_;
  double h_x1_;
  double h_n_;
  double s_;
};

/// Samples an index according to a fixed discrete weight vector.
/// O(log n) per draw via the cumulative table; fine for small tables
/// (size-class mixes have ~a dozen entries).
class DiscreteSampler {
 public:
  explicit DiscreteSampler(std::vector<double> weights);

  [[nodiscard]] std::size_t Sample(Rng& rng) const;

  [[nodiscard]] std::size_t size() const noexcept { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;
};

}  // namespace pamakv
