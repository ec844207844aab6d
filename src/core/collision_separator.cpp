#include "core/collision_separator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace lfbs::core {

namespace {

/// The separator handles collisions of up to three tags (27 clusters).
constexpr std::size_t kMaxTags = 3;
using Axes = std::array<Complex, kMaxTags>;
using Combo = std::array<int, kMaxTags>;

/// The 3^k combinations {-1, 0, 1}^k in lexicographic order, first
/// component most significant. The all-constant combination sits in the
/// middle, at index 3^k / 2. Built once per k.
const std::vector<Combo>& combinations(std::size_t k) {
  const auto build = [](std::size_t n) {
    std::vector<Combo> out(1, Combo{});
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<Combo> longer;
      longer.reserve(3 * out.size());
      for (const Combo& c : out) {
        for (int v = -1; v <= 1; ++v) {
          Combo d = c;
          d[t] = v;
          longer.push_back(d);
        }
      }
      out.swap(longer);
    }
    return out;
  };
  static const std::vector<Combo> two = build(2);
  static const std::vector<Combo> three = build(3);
  return k == 2 ? two : three;
}

/// origin + c1·e1 + … + ck·ek.
Complex grid_point(Complex origin, const Combo& c, const Axes& axes,
                   std::size_t k) {
  Complex p = origin;
  for (std::size_t t = 0; t < k; ++t) {
    p += static_cast<double>(c[t]) * axes[t];
  }
  return p;
}

double weakest_of(const Axes& axes, std::size_t k) {
  double weakest = std::abs(axes[0]);
  for (std::size_t t = 1; t < k; ++t) {
    weakest = std::min(weakest, std::abs(axes[t]));
  }
  return weakest;
}

/// |u × v|: zero for collinear vectors.
double cross(Complex u, Complex v) {
  return std::abs(u.real() * v.imag() - u.imag() * v.real());
}

/// Greedy one-to-one matching of centroids to grid points, closest pairs
/// first, over the pairs no farther apart than `cap`. Returns the largest
/// matched distance, or infinity when no bijection forms within `cap`.
/// Every match of the unbounded greedy whose largest distance is at most
/// `cap` uses only such pairs, taken in the same order, so for those the
/// result is the same double.
double match_quality(std::span<const Complex> centroids,
                     std::span<const Complex> grid, double cap) {
  constexpr std::size_t kMaxPoints = 27;
  LFBS_CHECK(centroids.size() <= kMaxPoints && grid.size() <= kMaxPoints);
  struct Entry {
    double d;
    std::uint8_t centroid;
    std::uint8_t point;
  };
  // Only entries[0, n) is ever written or read.
  std::array<Entry, kMaxPoints * kMaxPoints> entries;
  std::size_t n = 0;
  // A cheap squared-distance screen with slack for rounding, then the
  // exact distance, so the kept distances equal the unbounded ones.
  const double screen = cap * cap * (1.0 + 1e-9);
  std::uint32_t points_reached = 0;
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    const std::size_t row = n;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      const Complex diff = centroids[i] - grid[j];
      if (!(std::norm(diff) <= screen)) continue;
      const double d = std::abs(diff);
      if (!(d <= cap)) continue;
      entries[n++] = {d, static_cast<std::uint8_t>(i),
                      static_cast<std::uint8_t>(j)};
      points_reached |= 1u << j;
    }
    if (n == row) return std::numeric_limits<double>::infinity();
  }
  if (points_reached != (1u << grid.size()) - 1) {
    return std::numeric_limits<double>::infinity();
  }
  std::sort(entries.begin(), entries.begin() + n,
            [](const Entry& a, const Entry& b) { return a.d < b.d; });
  std::array<bool, kMaxPoints> centroid_used{};
  std::array<bool, kMaxPoints> point_used{};
  std::size_t matched = 0;
  double worst = 0.0;
  for (std::size_t e = 0; e < n; ++e) {
    const Entry& entry = entries[e];
    if (centroid_used[entry.centroid] || point_used[entry.point]) continue;
    centroid_used[entry.centroid] = true;
    point_used[entry.point] = true;
    worst = std::max(worst, entry.d);
    if (++matched == centroids.size()) break;
  }
  if (matched != centroids.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return worst;
}

}  // namespace

CollisionSeparator::CollisionSeparator(SeparatorConfig config)
    : config_(config) {
  LFBS_CHECK(config_.midpoint_tolerance > 0.0);
  LFBS_CHECK(config_.match_tolerance > 0.0);
}

std::optional<Separation> CollisionSeparator::separate(
    std::span<const Complex> points, const dsp::KMeansResult& fit) const {
  const auto& centroids = fit.centroids;
  const std::size_t k =
      centroids.size() == 9 ? 2 : (centroids.size() == 27 ? 3 : 0);
  if (k == 0 || points.empty()) return std::nullopt;

  // Origin cluster: the centroid nearest zero (every tag constant).
  std::size_t origin = 0;
  for (std::size_t i = 1; i < centroids.size(); ++i) {
    if (std::abs(centroids[i]) < std::abs(centroids[origin])) origin = i;
  }
  // Work in origin-relative coordinates so residual receiver offsets do not
  // bias the grid matching.
  std::vector<Complex> shifted(centroids.size());
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    shifted[i] = centroids[i] - centroids[origin];
  }
  std::vector<Complex> outer;
  outer.reserve(centroids.size() - 1);
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    if (i != origin) outer.push_back(shifted[i]);
  }
  double strongest = 0.0;
  for (const Complex& c : outer) strongest = std::max(strongest, std::abs(c));
  if (strongest <= 0.0) return std::nullopt;

  // Candidate sets of edge vectors are collected first; each is then scored
  // by how well its full grid matches the centroids, and the first best
  // match wins.
  const std::vector<Combo>& combos = combinations(k);
  std::vector<Axes> candidates;
  const auto consider = [&](const Axes& axes) {
    if (weakest_of(axes, k) < config_.min_edge_fraction * strongest) return;
    candidates.push_back(axes);
  };
  if (k == 2) {
    // Paper construction: find equally spaced collinear triples among the
    // 8 outer centroids — the parallelogram sides — whose midpoints are
    // ±e1/±e2.
    struct Midpoint {
      std::size_t index;  ///< into `outer`
      double error;       ///< |centroid - geometric midpoint| / pair span
    };
    std::vector<Midpoint> midpoints;
    for (std::size_t i = 0; i < outer.size(); ++i) {
      for (std::size_t j = i + 1; j < outer.size(); ++j) {
        const Complex mid = (outer[i] + outer[j]) * 0.5;
        const double span = std::abs(outer[i] - outer[j]);
        if (span <= 0.0) continue;
        for (std::size_t m = 0; m < outer.size(); ++m) {
          if (m == i || m == j) continue;
          const double err = std::abs(outer[m] - mid) / span;
          if (err <= config_.midpoint_tolerance) midpoints.push_back({m, err});
        }
      }
    }
    std::sort(midpoints.begin(), midpoints.end(),
              [](const Midpoint& a, const Midpoint& b) {
                return a.error < b.error;
              });
    const auto consider_pair = [&](Complex e1, Complex e2) {
      // Skip near-collinear candidates (degenerate parallelogram).
      if (cross(e1, e2) < 0.05 * std::abs(e1) * std::abs(e2)) return;
      consider({e1, e2, Complex{}});
    };
    for (std::size_t a = 0; a < midpoints.size(); ++a) {
      for (std::size_t b = a + 1; b < midpoints.size(); ++b) {
        consider_pair(outer[midpoints[a].index], outer[midpoints[b].index]);
      }
    }
    // Fallback: exhaustive hypothesis over all outer centroid pairs, when
    // no midpoint pair made a candidate. This covers noisy fits where a
    // side midpoint was smeared out of tolerance.
    if (candidates.empty()) {
      for (std::size_t a = 0; a < outer.size(); ++a) {
        for (std::size_t b = a + 1; b < outer.size(); ++b) {
          consider_pair(outer[a], outer[b]);
        }
      }
    }
  } else {
    // The axis vectors are themselves outer centroids, and never the
    // largest grid points: try triples of the 12 smallest.
    std::vector<std::size_t> order(outer.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::abs(outer[a]) < std::abs(outer[b]);
    });
    const std::size_t pool = std::min<std::size_t>(order.size(), 12);
    for (std::size_t x = 0; x < pool; ++x) {
      for (std::size_t y = x + 1; y < pool; ++y) {
        for (std::size_t z = y + 1; z < pool; ++z) {
          const Complex e1 = outer[order[x]];
          const Complex e2 = outer[order[y]];
          const Complex e3 = outer[order[z]];
          // Pairwise conditioning: near-collinear axes are inseparable.
          if (cross(e1, e2) < 0.1 * std::abs(e1) * std::abs(e2) ||
              cross(e1, e3) < 0.1 * std::abs(e1) * std::abs(e3) ||
              cross(e2, e3) < 0.1 * std::abs(e2) * std::abs(e3)) {
            continue;
          }
          // Antipodal pairs are the same axis.
          if (std::abs(e1 + e2) < 0.2 * std::abs(e1) ||
              std::abs(e1 + e3) < 0.2 * std::abs(e1) ||
              std::abs(e2 + e3) < 0.2 * std::abs(e2)) {
            continue;
          }
          consider({e1, e2, e3});
        }
      }
    }
  }

  // A candidate wins only with a quality strictly below the best so far,
  // and the winner passes only when its quality is at most
  // match_tolerance × its weakest axis. So no quality above the largest
  // such gate can change the result, and each score is capped there.
  std::vector<Complex> grid(combos.size());
  double best_quality = std::numeric_limits<double>::infinity();
  Axes best{};
  double gate = 0.0;
  for (const Axes& axes : candidates) {
    gate = std::max(gate, config_.match_tolerance * weakest_of(axes, k));
  }
  for (const Axes& axes : candidates) {
    for (std::size_t j = 0; j < combos.size(); ++j) {
      grid[j] = grid_point(Complex{}, combos[j], axes, k);
    }
    const double q = match_quality(shifted, grid, std::min(best_quality, gate));
    if (q < best_quality) {
      best_quality = q;
      best = axes;
    }
  }
  if (!std::isfinite(best_quality)) return std::nullopt;
  const double weakest = weakest_of(best, k);
  if (best_quality > config_.match_tolerance * weakest) return std::nullopt;

  // Classify every boundary point against the recovered grid. Points are
  // classified directly (not via their k-means cluster) so a slightly wrong
  // cluster boundary does not propagate.
  const Complex offset = centroids[origin];
  for (std::size_t j = 0; j < combos.size(); ++j) {
    grid[j] = grid_point(offset, combos[j], best, k);
  }
  Separation result;
  result.vectors.assign(best.begin(), best.begin() + k);
  result.states.resize(k);
  for (std::vector<EdgeState>& s : result.states) s.reserve(points.size());
  double residual_sum = 0.0;
  for (const Complex& p : points) {
    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best_j = combos.size() / 2;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      const double d = std::abs(p - grid[j]);
      if (d < best_d) {
        best_d = d;
        best_j = j;
      }
    }
    for (std::size_t t = 0; t < k; ++t) {
      result.states[t].push_back(combos[best_j][t]);
    }
    residual_sum += best_d;
  }
  result.residual =
      residual_sum / (static_cast<double>(points.size()) * weakest);
  return result;
}

}  // namespace lfbs::core
