#include "pamakv/util/histogram.hpp"

#include <algorithm>
#include <cstddef>

namespace pamakv {

double ExactQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

}  // namespace pamakv
