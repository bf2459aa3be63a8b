#include "pamakv/util/zipf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pamakv {

namespace {

// Hörmann & Derflinger helper: integral of x^-alpha, generalized so that
// alpha == 1 degenerates to log.
double HIntegral(double x, double alpha) {
  const double log_x = std::log(x);
  if (std::abs(alpha - 1.0) < 1e-12) return log_x;
  return std::expm1((1.0 - alpha) * log_x) / (1.0 - alpha);
}

double HIntegralInverse(double x, double alpha) {
  if (std::abs(alpha - 1.0) < 1e-12) return std::exp(x);
  double t = x * (1.0 - alpha);
  // Guard against rounding pushing t below -1 (which would leave the domain).
  t = std::max(t, -1.0 + 1e-15);
  return std::exp(std::log1p(t) / (1.0 - alpha));
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (alpha <= 0.0) throw std::invalid_argument("ZipfSampler: alpha must be > 0");
  h_x1_ = HIntegral(1.5, alpha) - 1.0;
  h_n_ = HIntegral(static_cast<double>(n) + 0.5, alpha);
  s_ = 2.0 - HIntegralInverse(HIntegral(2.5, alpha) - std::pow(2.0, -alpha), alpha);
}

double ZipfSampler::H(double x) const { return HIntegral(x, alpha_); }
double ZipfSampler::HInverse(double x) const { return HIntegralInverse(x, alpha_); }

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  // Rejection-inversion over the continuous majorizing density.
  for (;;) {
    const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    k = std::clamp<std::uint64_t>(k, 1, n_);
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= H(kd + 0.5) - std::pow(kd, -alpha_)) {
      return k - 1;  // 0-based rank
    }
  }
}

DiscreteSampler::DiscreteSampler(std::vector<double> weights) {
  if (weights.empty()) {
    throw std::invalid_argument("DiscreteSampler: empty weight vector");
  }
  cumulative_.resize(weights.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) {
      throw std::invalid_argument("DiscreteSampler: negative weight");
    }
    sum += weights[i];
    cumulative_[i] = sum;
  }
  if (sum <= 0.0) {
    throw std::invalid_argument("DiscreteSampler: weights sum to zero");
  }
  for (auto& c : cumulative_) c /= sum;
  cumulative_.back() = 1.0;  // close any rounding gap
}

std::size_t DiscreteSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<std::size_t>(it - cumulative_.begin());
}

}  // namespace pamakv
