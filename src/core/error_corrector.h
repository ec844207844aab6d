#pragma once

#include <span>
#include <vector>

#include "common/units.h"
#include "core/bit_decoder.h"

namespace lfbs::core {

/// Soft output of an erasure-aware correction pass.
struct SoftDecisionResult {
  std::vector<bool> bits;
  /// Per-boundary Viterbi score margins (log-likelihood-ratio proxies):
  /// how decisively each step's state beat the runner-up.
  std::vector<double> bit_margins;
  /// Terminal margin of the winning path over the best alternative.
  double path_margin = 0.0;
  double log_score = 0.0;
  std::size_t erasures = 0;  ///< boundaries demoted to erasures
};

/// Viterbi error correction (§3.5, Fig 6).
///
/// Certain edge sequences are physically impossible — a rising edge can
/// never follow a rising edge. The corrector runs a 4-state Viterbi decoder
/// over the boundary differentials:
///
///   ↑   rising edge            (level becomes 1)
///   ↓   falling edge           (level becomes 0)
///   −₊  no edge, level is 1    (last edge was rising)
///   −₋  no edge, level is 0    (last edge was falling)
///
/// with the transition constraints of a binary level signal — from ↑ or −₊
/// (level 1) only ↓ or −₊ can follow; from ↓ or −₋ (level 0) only ↑ or −₋ —
/// and 2-D Gaussian emissions fit to the observed IQ clusters. The most
/// likely state path directly yields the bit sequence, recovering missed
/// and spurious edges without any tag-side coding.
class ErrorCorrector {
 public:
  struct Config {
    /// Prior probability that a boundary carries an edge (bits flip half
    /// the time for random payloads).
    double edge_probability = 0.5;
    /// Floor on fitted cluster sigmas.
    double min_sigma = 1e-6;
  };

  explicit ErrorCorrector(Config config);
  ErrorCorrector() : ErrorCorrector(Config{}) {}

  /// Corrects a labelled single stream: returns the maximum-likelihood bit
  /// sequence given the boundary differentials and the cluster geometry.
  std::vector<bool> correct(std::span<const Complex> points,
                            const ThreeClusterLabels& labels) const;

  using SoftResult = SoftDecisionResult;

  /// Erasure-aware variant of correct(): boundaries whose confidence (from
  /// EdgeDetector, in [0,1]; boundaries with no detected edge pass 1.0 —
  /// "confidently no edge") is below the erasure threshold are decoded with
  /// wide Gaussians so the 4-state machine's transition structure fills
  /// them in. With an empty `confidences` span the bit sequence is
  /// identical to correct().
  SoftResult correct_soft(std::span<const Complex> points,
                          const ThreeClusterLabels& labels,
                          std::span<const double> confidences) const;

  /// Joint decode of a two-tag collision: a 4-state Viterbi over the level
  /// pair (l1, l2) whose transition from (l1,l2) to (l1',l2') emits
  /// (l1'-l1)·e1 + (l2'-l2)·e2 at each shared boundary. Strictly better
  /// than decoding each component against the other's hard decisions.
  ///
  /// `toggle1[k]` / `toggle2[k]` say whether the tag may change level at
  /// boundary k (false before its anchor slot and off its bit lattice, for
  /// mixed-rate collisions). `sigma` is the isotropic noise level of the
  /// differentials.
  struct JointResult {
    std::vector<bool> levels1;  ///< tag 1 level after each boundary
    std::vector<bool> levels2;
    /// Terminal Viterbi margin: winning path score minus the best
    /// alternative ending (0 when nothing else survives).
    double margin = 0.0;
  };
  JointResult correct_joint(std::span<const Complex> points, Complex e1,
                            Complex e2, const std::vector<bool>& toggle1,
                            const std::vector<bool>& toggle2,
                            double sigma) const;

  /// Three-tag extension of correct_joint: an 8-state Viterbi over the
  /// level triple (l1, l2, l3).
  struct Joint3Result {
    std::vector<bool> levels1, levels2, levels3;
    double margin = 0.0;  ///< terminal Viterbi margin, as in JointResult
  };
  Joint3Result correct_joint3(std::span<const Complex> points, Complex e1,
                              Complex e2, Complex e3,
                              const std::vector<bool>& toggle1,
                              const std::vector<bool>& toggle2,
                              const std::vector<bool>& toggle3,
                              double sigma) const;

 private:
  SoftResult run(std::span<const Complex> points, Complex rising,
                 Complex falling, Complex constant,
                 std::span<const Complex> rising_pts,
                 std::span<const Complex> falling_pts,
                 std::span<const Complex> constant_pts,
                 std::span<const double> confidences) const;

  Config config_;
};

}  // namespace lfbs::core
