#include "dsp/peaks.h"

#include <algorithm>
#include <cstdint>

namespace lfbs::dsp {

namespace {

/// Value at circular or clamped index.
double at(std::span<const double> xs, std::int64_t i, bool circular) {
  const auto n = static_cast<std::int64_t>(xs.size());
  if (circular) {
    i = ((i % n) + n) % n;
  } else {
    if (i < 0 || i >= n) return -1e300;  // off the edge counts as -inf
  }
  return xs[static_cast<std::size_t>(i)];
}

}  // namespace

std::vector<Peak> find_peaks(std::span<const double> xs,
                             const PeakOptions& opts) {
  std::vector<Peak> candidates;
  const auto n = static_cast<std::int64_t>(xs.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const double v = xs[static_cast<std::size_t>(i)];
    if (v < opts.min_value) continue;
    const double prev = at(xs, i - 1, opts.circular);
    const double next = at(xs, i + 1, opts.circular);
    // Strictly greater than the previous sample makes the first index of a
    // plateau the candidate; >= the next allows flat-topped peaks.
    if (v > prev && v >= next) {
      candidates.push_back({static_cast<std::size_t>(i), v});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });

  // Strongest first, a candidate is accepted unless an already accepted
  // peak lies closer than min_distance. Each acceptance marks the cells it
  // suppresses, so the test is one lookup. Accepted peaks sit at least
  // min_distance apart, which bounds the marking to O(n) in total.
  const std::size_t size = xs.size();
  const std::size_t reach = opts.min_distance == 0 ? 0 : opts.min_distance - 1;
  std::vector<char> suppressed(size, 0);
  std::vector<Peak> accepted;
  for (const Peak& c : candidates) {
    if (suppressed[c.index]) continue;
    accepted.push_back(c);
    if (opts.circular && reach >= size / 2) {
      std::fill(suppressed.begin(), suppressed.end(), 1);
    } else if (opts.circular) {
      for (std::size_t k = size - reach; k <= size + reach; ++k) {
        suppressed[(c.index + k) % size] = 1;
      }
    } else {
      const std::size_t first = c.index - std::min(c.index, reach);
      const std::size_t last = c.index + std::min(reach, size - 1 - c.index);
      std::fill(suppressed.begin() + static_cast<std::ptrdiff_t>(first),
                suppressed.begin() + static_cast<std::ptrdiff_t>(last) + 1, 1);
    }
  }
  return accepted;
}

}  // namespace lfbs::dsp
