#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dsp/kmeans.h"

namespace lfbs::core {

/// Verdict on how many tags are toggling at one stream group's boundaries.
///
/// Each colliding tag contributes one of three edge states (rising, falling,
/// constant) to every shared boundary, so k colliding tags produce 3^k
/// clusters of boundary IQ differentials (§3.3). The detector climbs the
/// ladder 3 → 9 → 27 clusters (each rung only when the data has enough
/// points for it) and stops at the first fit whose residual is small
/// against its centroid spread, or at the last rung.
struct CollisionAssessment {
  std::size_t colliders = 1;  ///< 1, 2, or 3
  dsp::KMeansResult fit;      ///< fit at the chosen cluster count
};

struct CollisionDetectorConfig {
  /// Minimum boundary points per cluster for a candidate to be considered:
  /// fitting 9 clusters to 12 points proves nothing.
  std::size_t min_points_per_cluster = 3;
  /// Consider the 27-cluster (3-tag) hypothesis at all. The paper shows
  /// P(3-way collision) ≈ 0.018 at 16 nodes / 100 kbps and defers such
  /// groups to a later epoch; the decoder first attempts a 3-way
  /// separation, then a 2-way one of the strongest components, and only
  /// then defers.
  bool consider_three_way = true;
  /// "Is k clusters a good fit?" test (§3.3): a fit is accepted when its
  /// RMS within-cluster residual is below this fraction of the centroid
  /// spread. A second colliding tag inflates the 3-cluster residual to the
  /// order of its own edge magnitude, failing this test.
  double residual_fraction = 0.08;
  dsp::KMeansOptions kmeans;
};

class CollisionDetector {
 public:
  explicit CollisionDetector(CollisionDetectorConfig config);

  const CollisionDetectorConfig& config() const { return config_; }

  /// Assesses the boundary differentials of one stream group. `rng` drives
  /// k-means seeding only.
  CollisionAssessment assess(std::span<const Complex> boundary_diffs,
                             Rng& rng) const;

 private:
  CollisionDetectorConfig config_;
};

}  // namespace lfbs::core
