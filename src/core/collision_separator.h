#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/units.h"
#include "dsp/kmeans.h"

namespace lfbs::core {

/// Per-boundary edge state of one tag: -1 falling, 0 constant, +1 rising.
using EdgeState = int;

/// K-tag collision separation (§3.4, Fig 5), K = 2 or 3.
///
/// The 3^K cluster centroids of a K-tag collision are the linear
/// combinations c1·e1 + … + cK·eK, c ∈ {-1, 0, 1}^K, of the tags' edge
/// vectors. For two tags they form the paper's 3×3 grid: the four corners
/// ±e1±e2, the four side midpoints ±e1 and ±e2, and the origin. Three tags
/// (an extension: the paper defers them to the next epoch) give the 27-point
/// grid projected into the IQ plane. The separator proposes candidate edge
/// vectors among the centroids, keeps the candidate whose grid matches all
/// centroids bijectively, and classifies every boundary against that grid —
/// no channel estimation required.
struct Separation {
  /// Edge vector of each component, K entries.
  std::vector<Complex> vectors;
  /// Per component, the per-boundary states (same length as the input).
  std::vector<std::vector<EdgeState>> states;
  /// Mean distance from each point to its matched combination, as a
  /// fraction of the weakest edge vector — a separation quality figure.
  double residual = 0.0;
};

struct SeparatorConfig {
  /// A centroid counts as the midpoint of a pair when it sits within this
  /// fraction of the pair's span from the geometric midpoint.
  double midpoint_tolerance = 0.2;
  /// Maximum acceptable matching residual: every centroid must lie within
  /// this fraction of the weakest edge vector of its grid point.
  double match_tolerance = 0.5;
  /// Reject when an edge vector is below this fraction of the strongest
  /// centroid (degenerate / single-tag geometry).
  double min_edge_fraction = 0.05;
};

class CollisionSeparator {
 public:
  explicit CollisionSeparator(SeparatorConfig config);

  const SeparatorConfig& config() const { return config_; }

  /// Separates a 9-cluster (K = 2) or 27-cluster (K = 3) fit into K per-tag
  /// state sequences. `points` are the boundary differentials the fit was
  /// computed on. Two-tag candidates are the midpoints of equally spaced
  /// collinear centroid triples (the parallelogram sides), with every
  /// centroid pair as the fallback; three-tag candidates are triples of the
  /// 12 smallest centroids that are pairwise well-conditioned in the IQ
  /// plane. Returns nullopt for any other cluster count or when the
  /// geometry does not support separation (the caller falls back to a
  /// smaller K, single-stream decoding or the next epoch).
  std::optional<Separation> separate(std::span<const Complex> points,
                                     const dsp::KMeansResult& fit) const;

 private:
  SeparatorConfig config_;
};

}  // namespace lfbs::core
