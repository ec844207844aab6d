// Tests for collision detection, parallelogram separation, bit decoding,
// and the Viterbi error corrector.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/bit_decoder.h"
#include "core/collision_detector.h"
#include "core/collision_separator.h"
#include "core/error_corrector.h"
#include "dsp/kmeans.h"

namespace lfbs::core {
namespace {

/// The separator as it was before its candidate search was capped at the
/// match gate: every candidate's grid fully matched and sorted, and the
/// all-pairs K = 2 fallback taken while no finite match exists. The capped
/// search must return exactly what this returns.
namespace reference {

/// The separator handles collisions of up to three tags (27 clusters).
constexpr std::size_t kMaxTags = 3;
using Axes = std::array<Complex, kMaxTags>;
using Combo = std::array<int, kMaxTags>;

/// The 3^k combinations {-1, 0, 1}^k in lexicographic order, first
/// component most significant. The all-constant combination sits in the
/// middle, at index 3^k / 2.
std::vector<Combo> combinations(std::size_t k) {
  std::vector<Combo> out(1, Combo{});
  for (std::size_t t = 0; t < k; ++t) {
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
/// first. Returns the largest matched distance, or infinity when a
/// bijection cannot be formed.
double match_quality(std::span<const Complex> centroids,
                     std::span<const Complex> grid) {
  struct Entry {
    double d;
    std::size_t centroid;
    std::size_t point;
  };
  std::vector<Entry> entries;
  entries.reserve(centroids.size() * grid.size());
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    for (std::size_t j = 0; j < grid.size(); ++j) {
      entries.push_back({std::abs(centroids[i] - grid[j]), i, j});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.d < b.d; });
  std::vector<bool> centroid_used(centroids.size(), false);
  std::vector<bool> point_used(grid.size(), false);
  std::size_t matched = 0;
  double worst = 0.0;
  for (const Entry& e : entries) {
    if (centroid_used[e.centroid] || point_used[e.point]) continue;
    centroid_used[e.centroid] = true;
    point_used[e.point] = true;
    worst = std::max(worst, e.d);
    if (++matched == centroids.size()) break;
  }
  if (matched != centroids.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return worst;
}

std::optional<Separation> separate(const SeparatorConfig& config_,
                                   std::span<const Complex> points,
                                   const dsp::KMeansResult& fit) {
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

  // Every candidate set of edge vectors is scored by how well its full grid
  // matches the centroids; the best match wins.
  const std::vector<Combo> combos = combinations(k);
  std::vector<Complex> grid(combos.size());
  double best_quality = std::numeric_limits<double>::infinity();
  Axes best{};
  const auto consider = [&](const Axes& axes) {
    if (weakest_of(axes, k) < config_.min_edge_fraction * strongest) return;
    for (std::size_t j = 0; j < combos.size(); ++j) {
      grid[j] = grid_point(Complex{}, combos[j], axes, k);
    }
    const double q = match_quality(shifted, grid);
    if (q < best_quality) {
      best_quality = q;
      best = axes;
    }
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
    // Fallback: exhaustive hypothesis over all outer centroid pairs. This
    // covers noisy fits where a side midpoint was smeared out of tolerance.
    if (!std::isfinite(best_quality)) {
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

}  // namespace reference

/// Synthesizes boundary differentials for `colliders` tags with the given
/// edge vectors: each boundary draws independent levels per tag.
struct SyntheticCollision {
  std::vector<Complex> points;
  std::vector<std::vector<int>> states;  // per tag, per boundary
};

SyntheticCollision synthesize(const std::vector<Complex>& evecs,
                              std::size_t boundaries, double sigma,
                              Rng& rng) {
  SyntheticCollision out;
  out.states.resize(evecs.size());
  std::vector<int> level(evecs.size(), 0);
  for (std::size_t k = 0; k < boundaries; ++k) {
    Complex sum{rng.gaussian(0.0, sigma), rng.gaussian(0.0, sigma)};
    for (std::size_t t = 0; t < evecs.size(); ++t) {
      const int next = rng.bernoulli(0.5) ? 1 : 0;
      const int d = next - level[t];
      level[t] = next;
      out.states[t].push_back(d);
      sum += static_cast<double>(d) * evecs[t];
    }
    out.points.push_back(sum);
  }
  return out;
}

TEST(CollisionDetector, SingleStreamIsThreeClusters) {
  Rng rng(1);
  const auto data = synthesize({{0.1, 0.05}}, 200, 0.004, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  const auto assess = det.assess(data.points, rng);
  EXPECT_EQ(assess.colliders, 1u);
}

TEST(CollisionDetector, TwoTagsAreNineClusters) {
  Rng rng(2);
  const auto data =
      synthesize({{0.1, 0.05}, {-0.04, 0.09}}, 300, 0.004, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  const auto assess = det.assess(data.points, rng);
  EXPECT_EQ(assess.colliders, 2u);
  EXPECT_EQ(assess.fit.centroids.size(), 9u);
}

TEST(CollisionDetector, ThreeTagsEscalate) {
  Rng rng(3);
  const auto data = synthesize(
      {{0.1, 0.05}, {-0.04, 0.09}, {0.07, -0.08}}, 900, 0.002, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  const auto assess = det.assess(data.points, rng);
  EXPECT_EQ(assess.colliders, 3u);
}

TEST(CollisionDetector, FewPointsStaySingle) {
  Rng rng(4);
  const auto data = synthesize({{0.1, 0.0}}, 8, 0.002, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  EXPECT_EQ(det.assess(data.points, rng).colliders, 1u);
}

/// Parameterized sweep over collision geometries: relative phase (degrees)
/// and amplitude ratio of the second tag.
class SeparatorSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SeparatorSweep, RecoversStates) {
  const auto [phase_deg, ratio] = GetParam();
  Rng rng(42);
  const Complex e1{0.1, 0.02};
  const Complex e2 = e1 * std::polar(ratio, phase_deg * M_PI / 180.0);
  const auto data = synthesize({e1, e2}, 400, 0.05 * std::abs(e2), rng);

  const dsp::KMeansResult fit = dsp::kmeans(data.points, 9, rng);
  const CollisionSeparator sep{SeparatorConfig{}};
  const auto result = sep.separate(data.points, fit);
  ASSERT_TRUE(result.has_value())
      << "phase " << phase_deg << " ratio " << ratio;

  // Allow component order and per-component sign ambiguity.
  const auto accuracy = [&](const std::vector<EdgeState>& got,
                            const std::vector<int>& truth) {
    int flip = 0;
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (truth[k] != 0 && got[k] != 0) {
        flip = truth[k] * got[k];
        break;
      }
    }
    if (flip == 0) flip = 1;
    std::size_t ok = 0;
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (got[k] * flip == truth[k]) ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(got.size());
  };
  ASSERT_EQ(result->states.size(), 2u);
  const double direct = accuracy(result->states[0], data.states[0]) +
                        accuracy(result->states[1], data.states[1]);
  const double swapped = accuracy(result->states[0], data.states[1]) +
                         accuracy(result->states[1], data.states[0]);
  EXPECT_GT(std::max(direct, swapped) / 2.0, 0.95)
      << "phase " << phase_deg << " ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SeparatorSweep,
    ::testing::Combine(::testing::Values(40.0, 90.0, 140.0),
                       ::testing::Values(0.5, 0.8, 1.2)));

TEST(CollisionSeparator, ThreeWayRecoversAxes) {
  Rng rng(77);
  const Complex e1{0.11, 0.01};
  const Complex e2{-0.02, 0.09};
  const Complex e3{-0.07, -0.06};
  const auto data = synthesize({e1, e2, e3}, 1200, 0.004, rng);
  const dsp::KMeansResult fit = dsp::kmeans(data.points, 27, rng);
  const CollisionSeparator sep{SeparatorConfig{}};
  const auto result = sep.separate(data.points, fit);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->vectors.size(), 3u);
  ASSERT_EQ(result->states.size(), 3u);
  // Each recovered axis must match one true axis up to sign.
  const std::vector<Complex> truth = {e1, e2, e3};
  for (Complex got : result->vectors) {
    double best = 1e9;
    for (const Complex& t : truth) {
      best = std::min({best, std::abs(got - t), std::abs(got + t)});
    }
    EXPECT_LT(best, 0.02);
  }
  EXPECT_LT(result->residual, 0.3);
}

TEST(CollisionSeparator, ThreeWayRejectsTwoTagData) {
  Rng rng(78);
  const auto data = synthesize({{0.1, 0.02}, {-0.03, 0.09}}, 1200, 0.004, rng);
  const dsp::KMeansResult fit = dsp::kmeans(data.points, 27, rng);
  const CollisionSeparator sep{SeparatorConfig{}};
  // 27 clusters force-fit to 9-cluster data: no consistent 3-axis grid.
  const auto result = sep.separate(data.points, fit);
  if (result.has_value()) {
    // If a degenerate "third axis" sneaks through it must be tiny relative
    // to the real ones — the pipeline's anchor checks then drop it.
    ASSERT_EQ(result->vectors.size(), 3u);
    double weakest = 1e9;
    for (Complex v : result->vectors) weakest = std::min(weakest, std::abs(v));
    EXPECT_LT(weakest, 0.03);
  }
}

TEST(ErrorCorrector, Joint3SeparatesThreeTags) {
  Rng rng(79);
  const Complex e1{0.11, 0.01}, e2{-0.02, 0.09}, e3{-0.07, -0.06};
  const auto data = synthesize({e1, e2, e3}, 400, 0.008, rng);
  const std::vector<Complex> vectors = {e1, e2, e3};
  const std::vector<std::vector<bool>> toggles(3,
                                               std::vector<bool>(400, true));
  const ErrorCorrector corrector;
  const auto joint =
      corrector.correct_joint(data.points, vectors, toggles, 0.008);
  ASSERT_EQ(joint.levels.size(), 3u);
  int l[3] = {0, 0, 0};
  std::size_t ok[3] = {0, 0, 0};
  for (std::size_t k = 0; k < 400; ++k) {
    for (int t = 0; t < 3; ++t) {
      l[t] += data.states[t][k];
      if (joint.levels[t][k] == (l[t] != 0)) ++ok[t];
    }
  }
  for (int t = 0; t < 3; ++t) EXPECT_GT(ok[t], 390u) << "tag " << t;
}

TEST(CollisionSeparator, RejectsNonGrid) {
  Rng rng(5);
  // Nine random blobs that are not a parallelogram grid.
  std::vector<Complex> points;
  std::vector<Complex> centres;
  for (int i = 0; i < 9; ++i) {
    centres.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  for (int i = 0; i < 300; ++i) {
    const Complex c = centres[rng.uniform_u64(9)];
    points.push_back(c + Complex{rng.gaussian(0, 0.01), rng.gaussian(0, 0.01)});
  }
  const dsp::KMeansResult fit = dsp::kmeans(points, 9, rng);
  const CollisionSeparator sep{SeparatorConfig{}};
  EXPECT_FALSE(sep.separate(points, fit).has_value());
}

TEST(CollisionSeparator, RejectsWrongClusterCount) {
  Rng rng(6);
  std::vector<Complex> points = {{0, 0}, {1, 1}};
  const dsp::KMeansResult fit = dsp::kmeans(points, 2, rng);
  const CollisionSeparator sep{SeparatorConfig{}};
  EXPECT_FALSE(sep.separate(points, fit).has_value());
}

/// One seeded separator input: a fit's centroids, built directly rather
/// than by k-means, and a few boundary points around them.
struct SeparatorCase {
  std::vector<Complex> points;
  dsp::KMeansResult fit;
};

Complex random_axis(Rng& rng) {
  return std::polar(rng.uniform(0.02, 0.2), rng.uniform(-M_PI, M_PI));
}

/// The 3^k grid of `axes` around `offset`, each centroid moved by up to
/// `noise` × the weakest axis, in shuffled order as k-means returns it.
std::vector<Complex> noisy_grid(const std::vector<Complex>& axes,
                                Complex offset, double noise, Rng& rng) {
  double weakest = std::abs(axes[0]);
  for (const Complex& e : axes) weakest = std::min(weakest, std::abs(e));
  std::vector<Complex> out(1, offset);
  for (const Complex& e : axes) {
    std::vector<Complex> longer;
    for (const Complex& c : out) {
      for (int v = -1; v <= 1; ++v) longer.push_back(c + double(v) * e);
    }
    out.swap(longer);
  }
  for (Complex& c : out) {
    c += std::polar(rng.uniform(0.0, noise) * weakest,
                    rng.uniform(-M_PI, M_PI));
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.uniform_u64(i)]);
  }
  return out;
}

/// Case `n` of the equivalence sweep: K = 3 for every fourth case, else
/// K = 2. The shapes cycle: true 2- and 3-tag
/// grids with noise up to 0.4 of the weakest edge, near-collinear and
/// near-antipodal axes around the conditioning thresholds, duplicated
/// centroids, an all-zero fit, a best match exactly on the match gate,
/// random clouds, and grids so noisy that every candidate is over the
/// match gate.
SeparatorCase separator_case(std::size_t n, Rng& rng) {
  const std::size_t k = n % 4 == 3 ? 3 : 2;
  const Complex offset{rng.gaussian(0.0, 0.01), rng.gaussian(0.0, 0.01)};
  std::vector<Complex> axes;
  for (std::size_t t = 0; t < k; ++t) axes.push_back(random_axis(rng));
  SeparatorCase c;
  std::vector<Complex>& centroids = c.fit.centroids;
  switch ((n / 4) % 8) {
    case 0:
      centroids = noisy_grid(axes, offset, rng.uniform(0.0, 0.4), rng);
      break;
    case 1:
      centroids = noisy_grid(axes, offset, rng.uniform(0.0, 0.1), rng);
      break;
    case 2:  // a second axis nearly along the first
      axes[1] = axes[0] * std::polar(rng.uniform(0.5, 1.5),
                                     rng.uniform(-0.2, 0.2));
      centroids = noisy_grid(axes, offset, rng.uniform(0.0, 0.2), rng);
      break;
    case 3:  // a second axis nearly opposite the first
      axes[1] = -axes[0] * std::polar(rng.uniform(0.7, 1.3),
                                      rng.uniform(-0.4, 0.4));
      centroids = noisy_grid(axes, offset, rng.uniform(0.0, 0.2), rng);
      break;
    case 4: {  // exact copies of centroids over others
      centroids = noisy_grid(axes, offset, rng.uniform(0.0, 0.3), rng);
      const std::size_t copies = 1 + rng.uniform_u64(3);
      for (std::size_t i = 0; i < copies; ++i) {
        centroids[rng.uniform_u64(centroids.size())] =
            centroids[rng.uniform_u64(centroids.size())];
      }
      break;
    }
    case 5:
      if ((n / 32) % 16 == 0) {
        centroids.assign(k == 2 ? 9 : 27, Complex{});
      } else if ((n / 32) % 16 == 1) {
        // Exact binary fractions put the best match exactly on the gate,
        // match_tolerance × the weakest axis = 0.25: one centroid sits 0.25
        // from its grid point.
        axes = {{0.5, 0.0}, {0.0, 0.5}, {0.375, 0.5}};
        axes.resize(k);
        centroids = noisy_grid(axes, Complex{}, 0.0, rng);
        for (Complex& centroid : centroids) {
          if (centroid == Complex{0.5, 0.5}) centroid += 0.25;
        }
      } else {
        centroids = noisy_grid(axes, offset, rng.uniform(0.3, 0.6), rng);
      }
      break;
    case 6:
      for (std::size_t i = 0; i < (k == 2 ? 9u : 27u); ++i) {
        centroids.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
      }
      break;
    default:
      centroids = noisy_grid(axes, offset, rng.uniform(0.8, 2.0), rng);
      break;
  }
  for (const Complex& centroid : centroids) {
    for (int i = 0; i < 2; ++i) {
      c.points.push_back(centroid + Complex{rng.gaussian(0.0, 0.01),
                                            rng.gaussian(0.0, 0.01)});
    }
  }
  return c;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(CollisionSeparator, CappedSearchMatchesTheFullSearch) {
  Rng rng(2026);
  const SeparatorConfig config;
  const CollisionSeparator sep{config};
  std::array<std::size_t, 4> resolved{};  // by K
  std::array<std::size_t, 4> rejected{};
  for (std::size_t n = 0; n < 2048; ++n) {
    const SeparatorCase c = separator_case(n, rng);
    const std::size_t k = c.fit.centroids.size() == 9 ? 2 : 3;
    const auto want = reference::separate(config, c.points, c.fit);
    const auto got = sep.separate(c.points, c.fit);
    ASSERT_EQ(got.has_value(), want.has_value()) << "case " << n;
    if (!want) {
      ++rejected[k];
      continue;
    }
    ++resolved[k];
    ASSERT_EQ(got->vectors.size(), want->vectors.size()) << "case " << n;
    for (std::size_t t = 0; t < want->vectors.size(); ++t) {
      EXPECT_EQ(bits_of(got->vectors[t].real()),
                bits_of(want->vectors[t].real()))
          << "case " << n;
      EXPECT_EQ(bits_of(got->vectors[t].imag()),
                bits_of(want->vectors[t].imag()))
          << "case " << n;
    }
    EXPECT_EQ(got->states, want->states) << "case " << n;
    EXPECT_EQ(bits_of(got->residual), bits_of(want->residual))
        << "case " << n;
  }
  // Both outcomes are well represented for both K.
  EXPECT_GT(resolved[2], 300u);
  EXPECT_GT(rejected[2], 300u);
  EXPECT_GT(resolved[3], 30u);
  EXPECT_GT(rejected[3], 300u);
}

TEST(BitDecoder, LabelsThreeClustersWithAnchor) {
  Rng rng(7);
  const auto data = synthesize({{0.1, -0.06}}, 200, 0.003, rng);
  // Force the first boundary to be the rising anchor.
  std::vector<Complex> points = data.points;
  points.insert(points.begin(), Complex{0.1, -0.06});
  const dsp::KMeansResult fit = dsp::kmeans(points, 3, rng);
  const ThreeClusterLabels labels = label_three_clusters(points, fit);
  EXPECT_EQ(labels.states.front(), 1);  // anchor is rising
  EXPECT_NEAR(std::abs(labels.rising - Complex{0.1, -0.06}), 0.0, 0.02);
  EXPECT_NEAR(std::abs(labels.falling + Complex{0.1, -0.06}), 0.0, 0.02);
  EXPECT_LT(std::abs(labels.constant), 0.02);
}

TEST(BitDecoder, IntegrateStatesTableOne) {
  // Table 1 of the paper: edges ↓ - - - ↑ - ↓ ↑ ↓ after an anchor 1.
  const std::vector<EdgeState> states = {1, -1, 0, 0, 0, 1, 0, -1, 1, -1};
  const std::vector<bool> expected = {true, false, false, false, false,
                                      true, true, false, true, false};
  EXPECT_EQ(integrate_states(states), expected);
}

TEST(BitDecoder, NormalizeAnchorFlipsWhenNeeded) {
  std::vector<EdgeState> flipped = {0, -1, 0, 1, -1};
  EXPECT_TRUE(normalize_anchor(flipped));
  EXPECT_EQ(flipped, (std::vector<EdgeState>{0, 1, 0, -1, 1}));
  std::vector<EdgeState> fine = {1, -1};
  EXPECT_FALSE(normalize_anchor(fine));
  std::vector<EdgeState> all_zero = {0, 0};
  EXPECT_FALSE(normalize_anchor(all_zero));
}

TEST(BitDecoder, SubsampleStates) {
  const std::vector<EdgeState> states = {1, 0, -1, 0, 1, 0};
  EXPECT_EQ(subsample_states(states, 0, 2),
            (std::vector<EdgeState>{1, -1, 1}));
  EXPECT_EQ(subsample_states(states, 1, 2),
            (std::vector<EdgeState>{0, 0, 0}));
}

TEST(BitDecoder, ClassifySimpleThresholds) {
  const std::vector<Complex> points = {{0.1, 0.0},   // anchor (rising)
                                       {0.0, 0.001}, // constant
                                       {-0.11, 0.0}, // falling
                                       {0.09, 0.01}};
  const auto states = classify_simple(points);
  EXPECT_EQ(states, (std::vector<EdgeState>{1, 0, -1, 1}));
}

TEST(ErrorCorrector, CleanSequenceRoundTrip) {
  const Complex e{0.1, -0.04};
  const std::vector<bool> truth = {true, false, false, true, true, false,
                                   true, false};
  std::vector<Complex> points;
  bool level = false;
  for (bool b : truth) {
    points.push_back((static_cast<double>(b) - static_cast<double>(level)) *
                     e);
    level = b;
  }
  ThreeClusterLabels labels;
  labels.rising = e;
  labels.falling = -e;
  labels.constant = {};
  labels.states = {1, -1, 0, 1, 0, -1, 1, -1};
  const ErrorCorrector corrector;
  EXPECT_EQ(corrector.correct_soft(points, labels, {}).bits, truth);
}

TEST(ErrorCorrector, OutputAlwaysSatisfiesEdgeConstraints) {
  // Feed garbage differentials: whatever comes out must be *a* valid NRZ
  // level sequence starting from the rising anchor — by construction the
  // 4-state machine cannot emit, say, two consecutive rising edges.
  Rng rng(21);
  const Complex e{0.1, 0.0};
  std::vector<Complex> points;
  std::vector<EdgeState> states;
  for (int k = 0; k < 100; ++k) {
    points.push_back({rng.gaussian(0.0, 0.08), rng.gaussian(0.0, 0.08)});
    states.push_back(0);
  }
  points[0] = e;
  states[0] = 1;
  ThreeClusterLabels labels;
  labels.rising = e;
  labels.falling = -e;
  labels.constant = {};
  labels.states = states;
  const ErrorCorrector corrector;
  const auto bits = corrector.correct_soft(points, labels, {}).bits;
  EXPECT_EQ(bits.size(), points.size());
  EXPECT_TRUE(bits.front());  // anchor forced rising
}

TEST(ErrorCorrector, BeatsHardDecisionsUnderNoise) {
  Rng rng(22);
  const Complex e{0.1, 0.02};
  std::size_t viterbi_errors = 0, hard_errors = 0, total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> truth = rng.bits(120);
    truth[0] = true;
    std::vector<Complex> points;
    bool level = false;
    for (bool b : truth) {
      const double d = static_cast<double>(b) - static_cast<double>(level);
      level = b;
      points.push_back(d * e + Complex{rng.gaussian(0.0, 0.035),
                                       rng.gaussian(0.0, 0.035)});
    }
    // Hard decisions: nearest of {+e, 0, -e}, integrated.
    std::vector<EdgeState> hard;
    for (const Complex& p : points) {
      const double dp = std::abs(p - e), dm = std::abs(p + e),
                   dz = std::abs(p);
      hard.push_back(dp < dm && dp < dz ? 1 : (dm < dz ? -1 : 0));
    }
    const auto hard_bits = integrate_states(hard);
    ThreeClusterLabels labels;
    labels.rising = e;
    labels.falling = -e;
    labels.constant = {};
    labels.states = hard;
    const ErrorCorrector corrector;
    const auto viterbi_bits = corrector.correct_soft(points, labels, {}).bits;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      ++total;
      if (viterbi_bits[i] != truth[i]) ++viterbi_errors;
      if (hard_bits[i] != truth[i]) ++hard_errors;
    }
  }
  // Sequence constraints must not hurt, and should help under noise.
  EXPECT_LE(viterbi_errors, hard_errors);
  EXPECT_GT(hard_errors, 0u) << "noise too low to exercise correction; "
                                "total bits " << total;
}

TEST(ErrorCorrector, LowConfidenceBoundaryIsErasedAndFilledIn) {
  // A faded rising edge: boundary 4 reads as "no edge", so the hard
  // decode must put the missing rise somewhere in 4..8 and noise picks the
  // spot. Erasing boundary 4 (confidence under 0.25) widens its emissions
  // until the transition structure puts the rise back where it belongs.
  const Complex e{0.1, 0.02};
  const std::vector<bool> truth = {
      true,  false, false, false, true,  true,  true,  true,  true,  false,
      false, true,  false, true,  true,  false, false, true,  false, true,
      false, false, true,  true,  false, true,  false, false, true,  false};
  constexpr std::size_t kFaded = 4;
  Rng rng(5);
  std::vector<Complex> points;
  bool level = false;
  for (std::size_t k = 0; k < truth.size(); ++k) {
    const double d = k == kFaded ? 0.0
                                 : static_cast<double>(truth[k]) -
                                       static_cast<double>(level);
    level = truth[k];
    points.push_back(d * e + Complex{rng.gaussian(0.0, 0.01),
                                     rng.gaussian(0.0, 0.01)});
  }
  ThreeClusterLabels labels;
  labels.rising = e;
  labels.falling = -e;
  labels.constant = {};
  labels.states = classify_simple(points);
  const ErrorCorrector corrector;
  ASSERT_NE(corrector.correct_soft(points, labels, {}).bits, truth)
      << "the faded edge must mislead the hard decode";

  std::vector<double> confidences(points.size(), 1.0);
  confidences[kFaded] = 0.24;
  const auto erased = corrector.correct_soft(points, labels, confidences);
  EXPECT_EQ(erased.erasures, 1u);
  EXPECT_EQ(erased.bits, truth);

  confidences[kFaded] = 0.26;
  EXPECT_EQ(corrector.correct_soft(points, labels, confidences).erasures, 0u);
}

TEST(ErrorCorrector, JointDecodeSeparatesBothTags) {
  Rng rng(9);
  const Complex e1{0.1, 0.01}, e2{-0.03, 0.09};
  const auto data = synthesize({e1, e2}, 300, 0.01, rng);
  const std::vector<Complex> vectors = {e1, e2};
  const std::vector<std::vector<bool>> toggles(2,
                                               std::vector<bool>(300, true));
  const ErrorCorrector corrector;
  const auto joint =
      corrector.correct_joint(data.points, vectors, toggles, 0.01);
  ASSERT_EQ(joint.levels.size(), 2u);
  // Reconstruct levels from the true states.
  std::size_t ok1 = 0, ok2 = 0;
  int l1 = 0, l2 = 0;
  for (std::size_t k = 0; k < 300; ++k) {
    l1 += data.states[0][k];
    l2 += data.states[1][k];
    if (joint.levels[0][k] == (l1 != 0)) ++ok1;
    if (joint.levels[1][k] == (l2 != 0)) ++ok2;
  }
  EXPECT_GT(ok1, 295u);
  EXPECT_GT(ok2, 295u);
}

TEST(ErrorCorrector, JointRespectsToggleMask) {
  const Complex e1{0.1, 0.0}, e2{0.0, 0.1};
  // Tag 2 may only toggle at even boundaries.
  std::vector<Complex> points = {e1 + e2, -e1, e2 * 0.0, -e2};
  const std::vector<Complex> vectors = {e1, e2};
  const std::vector<std::vector<bool>> toggles = {{true, true, true, true},
                                                  {true, false, true, false}};
  const ErrorCorrector corrector;
  const auto joint = corrector.correct_joint(points, vectors, toggles, 0.01);
  // Tag 2's level can only change at boundaries 0 and 2.
  EXPECT_EQ(joint.levels[1][0], joint.levels[1][1]);
  EXPECT_EQ(joint.levels[1][2], joint.levels[1][3]);
}

}  // namespace
}  // namespace lfbs::core
