// Focused tests for decode-pipeline internals that the end-to-end suites
// exercise only indirectly: weak-anchor trimming, outlier pruning, the
// collision ladder's goodness-of-fit thresholds, and Viterbi priors.
#include <gtest/gtest.h>

#include <cmath>

#include "core/collision_detector.h"
#include "core/error_corrector.h"
#include "core/stream_detector.h"

namespace lfbs::core {
namespace {

StreamDetectorConfig paper_config() {
  StreamDetectorConfig cfg;
  cfg.lattice_period = 250.0;
  cfg.base_tolerance = 3.5;
  cfg.merge_radius = 5.0;
  cfg.valid_steps = {200, 100, 50, 20, 10, 2, 1};
  return cfg;
}

TEST(StreamDetectorDetail, PrunesOffLatticeSeed) {
  // A spurious edge 20 samples off the true phase seeds the group; once the
  // genuine edges dominate the fit, the seed's residual exposes it.
  std::vector<signal::Edge> edges;
  edges.push_back({.position = 480.0, .differential = {0.02, 0.0},
                   .strength = 0.02});
  for (int k = 0; k < 30; ++k) {
    edges.push_back({.position = 750.0 + 250.0 * k,
                     .differential = {0.1, 0.0}, .strength = 0.1});
  }
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges);
  ASSERT_EQ(groups.size(), 1u);
  // The surviving group must be re-anchored on the true stream: intercept
  // near 750, not 480, and the spurious edge pruned.
  EXPECT_NEAR(std::fmod(groups[0].intercept, 250.0), 0.0, 3.0);
  EXPECT_EQ(groups[0].edge_indices.size(), 30u);
}

TEST(StreamDetectorDetail, TrimsWeakLeadingEdges) {
  // A weak noise edge exactly on the lattice, four slots early: strength
  // trimming must drop it so the anchor is the real first edge.
  std::vector<signal::Edge> edges;
  edges.push_back({.position = 1000.0, .differential = {0.01, 0.0},
                   .strength = 0.01});
  for (int k = 4; k < 34; ++k) {
    edges.push_back({.position = 1000.0 + 250.0 * k,
                     .differential = {0.1, 0.0}, .strength = 0.1});
  }
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].edge_indices.size(), 30u);
  EXPECT_NEAR(groups[0].intercept, 2000.0, 3.0);
  EXPECT_EQ(groups[0].start_index, 0);
}

TEST(StreamDetectorDetail, KeepsStrongLeadingEdge) {
  // Same geometry but the early edge is as strong as the rest: it is a
  // legitimate (sparse) anchor and must be kept.
  std::vector<signal::Edge> edges;
  edges.push_back({.position = 1000.0, .differential = {0.1, 0.0},
                   .strength = 0.1});
  for (int k = 4; k < 34; ++k) {
    edges.push_back({.position = 1000.0 + 250.0 * k,
                     .differential = {0.1, 0.0}, .strength = 0.1});
  }
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].edge_indices.size(), 31u);
  EXPECT_NEAR(groups[0].intercept, 1000.0, 3.0);
}

TEST(CollisionLadder, ResidualFractionControlsEscalation) {
  // Two tags at similar strength: the strict default escalates to 9; an
  // absurdly lax residual_fraction accepts 3 clusters and stays "single".
  Rng rng(5);
  std::vector<Complex> points;
  const Complex e1{0.1, 0.02}, e2{-0.03, 0.09};
  int l1 = 0, l2 = 0;
  for (int k = 0; k < 300; ++k) {
    const int n1 = rng.bernoulli(0.5) ? 1 : 0;
    const int n2 = rng.bernoulli(0.5) ? 1 : 0;
    points.push_back(static_cast<double>(n1 - l1) * e1 +
                     static_cast<double>(n2 - l2) * e2 +
                     Complex{rng.gaussian(0, 0.003), rng.gaussian(0, 0.003)});
    l1 = n1;
    l2 = n2;
  }
  CollisionDetectorConfig strict;
  EXPECT_EQ(CollisionDetector(strict).assess(points, rng).colliders, 2u);
  CollisionDetectorConfig lax;
  lax.residual_fraction = 10.0;
  EXPECT_EQ(CollisionDetector(lax).assess(points, rng).colliders, 1u);
}

TEST(CollisionLadder, ThreeWayCanBeDisabled) {
  Rng rng(6);
  std::vector<Complex> points;
  const Complex e[3] = {{0.1, 0.02}, {-0.03, 0.09}, {0.06, -0.08}};
  int l[3] = {0, 0, 0};
  for (int k = 0; k < 900; ++k) {
    Complex sum{rng.gaussian(0, 0.002), rng.gaussian(0, 0.002)};
    for (int t = 0; t < 3; ++t) {
      const int nt = rng.bernoulli(0.5) ? 1 : 0;
      sum += static_cast<double>(nt - l[t]) * e[t];
      l[t] = nt;
    }
    points.push_back(sum);
  }
  CollisionDetectorConfig no3;
  no3.consider_three_way = false;
  const auto assess = CollisionDetector(no3).assess(points, rng);
  EXPECT_LE(assess.colliders, 2u);
}

TEST(ErrorCorrectorDetail, EdgeProbabilityPriorBiasesHolds) {
  // With a strong "no toggle" prior, a borderline observation resolves to
  // holding the level; with a strong "toggle" prior, to an edge.
  const Complex e{0.1, 0.0};
  // The middle observation sits exactly between the "falling" and
  // "constant" emission means, so only the transition prior can break the
  // tie.
  const std::vector<Complex> points = {e, -0.5 * e, Complex{}};
  ThreeClusterLabels labels;
  labels.rising = e;
  labels.falling = -e;
  labels.constant = {};
  labels.states = {1, 0, 0};

  ErrorCorrector::Config hold_prior;
  hold_prior.edge_probability = 0.02;
  const auto hold_bits = ErrorCorrector(hold_prior).correct_soft(points, labels, {}).bits;
  ErrorCorrector::Config edge_prior;
  edge_prior.edge_probability = 0.98;
  const auto edge_bits = ErrorCorrector(edge_prior).correct_soft(points, labels, {}).bits;
  // Bit 1 differs between the two priors (anchor bit 0 = 1; the middle
  // observation is exactly between "stay 1" and "fall to 0 then rise").
  EXPECT_TRUE(hold_bits[1]);
  EXPECT_FALSE(edge_bits[1]);
}

}  // namespace
}  // namespace lfbs::core
