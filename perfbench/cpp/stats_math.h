// Sample arithmetic of the benchmark: medians, nearest-rank percentiles and
// the choice of which tail percentile a sample count can support.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// The median as the mean of the two middle order statistics.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The highest percentile, no higher than `wanted`, that leaves at least
/// `min_beyond` samples strictly above its nearest rank. Candidates are
/// `wanted` and then the coarser 75th and 50th; when not even the median
/// qualifies, the median is returned anyway — it is the one statistic every
/// sample count reports.
inline double supported_percentile(std::size_t samples, double wanted,
                                   std::size_t min_beyond = 10) {
  for (const double p : {wanted, 75.0, 50.0}) {
    if (p > wanted) continue;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(samples));
    if (static_cast<double>(samples) - rank >=
        static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 50.0;
}

}  // namespace perfbench
