// Exact quantiles over retained samples, for the load generator, the
// figure benches and tests. The log-bucketed latency histogram is
// util::Histogram (util/metrics.hpp).
#pragma once

#include <vector>

namespace pamakv {

/// Exact quantiles from a retained sample vector (for tests and small runs).
[[nodiscard]] double ExactQuantile(std::vector<double> values, double q);

}  // namespace pamakv
