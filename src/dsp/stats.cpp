#include "dsp/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lfbs::dsp {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

Complex mean(std::span<const Complex> xs) {
  if (xs.empty()) return {};
  Complex sum{};
  for (const Complex& x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  LFBS_CHECK(!xs.empty());
  LFBS_CHECK(p >= 0.0 && p <= 100.0);
  // Selection instead of a full sort: the two order statistics the
  // interpolation reads are the lo-th smallest (nth_element) and the
  // smallest of everything above it, so the result is the same double a
  // sorted copy gives, in O(n).
  std::vector<double> work(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(work.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto lo_it = work.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(work.begin(), lo_it, work.end());
  const double lower = *lo_it;
  const double upper =
      lo + 1 < work.size() ? *std::min_element(lo_it + 1, work.end()) : lower;
  const double frac = pos - static_cast<double>(lo);
  return lower * (1.0 - frac) + upper * frac;
}

double min(std::span<const double> xs) {
  LFBS_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  LFBS_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double rms(std::span<const Complex> xs) { return std::sqrt(mean_power(xs)); }

double mean_power(std::span<const Complex> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const Complex& x : xs) sum += std::norm(x);
  return sum / static_cast<double>(xs.size());
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins) {
  LFBS_CHECK(bins > 0);
  LFBS_CHECK(hi > lo);
  std::vector<std::size_t> counts(bins, 0);
  const double scale = static_cast<double>(bins) / (hi - lo);
  for (double x : xs) {
    auto idx = static_cast<std::int64_t>((x - lo) * scale);
    idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(idx)];
  }
  return counts;
}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace lfbs::dsp
