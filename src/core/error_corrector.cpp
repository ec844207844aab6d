#include "core/error_corrector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dsp/gaussian.h"
#include "dsp/viterbi.h"

namespace lfbs::core {

namespace {

// State indices for the 4-state edge machine.
constexpr std::size_t kRising = 0;    // ↑
constexpr std::size_t kFalling = 1;   // ↓
constexpr std::size_t kHoldHigh = 2;  // −₊ (no edge, level 1)
constexpr std::size_t kHoldLow = 3;   // −₋ (no edge, level 0)

// Boundaries whose edge confidence falls below this become erasures.
constexpr double kErasureThreshold = 0.25;
// Erasure emission: the per-state Gaussian with its sigmas inflated by this
// factor — wide enough that transitions and priors dominate, but the
// observation still breaks exact ties deterministically.
constexpr double kErasureSigmaScale = 8.0;

/// Fits a 2-D Gaussian to the points of one cluster; degenerate clusters
/// fall back to an isotropic Gaussian around the centroid with a spread
/// proportional to `scale`.
dsp::Gaussian2D fit_or_default(std::span<const Complex> pts, Complex centroid,
                               double scale, double min_sigma) {
  if (pts.size() >= 4) {
    dsp::Gaussian2D g = dsp::fit_gaussian2d(pts, min_sigma);
    return g;
  }
  dsp::Gaussian2D g;
  g.mean_i = centroid.real();
  g.mean_q = centroid.imag();
  g.sigma_i = std::max(0.25 * scale, min_sigma);
  g.sigma_q = g.sigma_i;
  g.rho = 0.0;
  return g;
}

}  // namespace

ErrorCorrector::ErrorCorrector(Config config) : config_(config) {
  LFBS_CHECK(config_.edge_probability > 0.0 && config_.edge_probability < 1.0);
}

ErrorCorrector::SoftResult ErrorCorrector::correct_soft(
    std::span<const Complex> points, const ThreeClusterLabels& labels,
    std::span<const double> confidences) const {
  LFBS_CHECK(points.size() == labels.states.size());
  LFBS_CHECK(confidences.empty() || confidences.size() == points.size());
  std::vector<Complex> rising_pts, falling_pts, constant_pts;
  for (std::size_t i = 0; i < points.size(); ++i) {
    switch (labels.states[i]) {
      case 1:
        rising_pts.push_back(points[i]);
        break;
      case -1:
        falling_pts.push_back(points[i]);
        break;
      default:
        constant_pts.push_back(points[i]);
        break;
    }
  }
  return run(points, labels.rising, labels.falling, labels.constant,
             rising_pts, falling_pts, constant_pts, confidences);
}

ErrorCorrector::JointResult ErrorCorrector::correct_joint(
    std::span<const Complex> points, std::span<const Complex> vectors,
    std::span<const std::vector<bool>> toggles, double sigma) const {
  const std::size_t tags = vectors.size();
  LFBS_CHECK(!points.empty());
  // Backpointers are bytes: at most 2^8 states.
  LFBS_CHECK(tags >= 1 && tags <= 8);
  LFBS_CHECK(toggles.size() == tags);
  for (const std::vector<bool>& t : toggles) {
    LFBS_CHECK(t.size() == points.size());
  }
  const double inv_two_sigma2 = 1.0 / (2.0 * std::max(sigma * sigma, 1e-18));
  const double log_edge = std::log(config_.edge_probability);
  const double log_hold = std::log(1.0 - config_.edge_probability);

  // DP over boundaries. Emission sits on the transition, so this is a
  // bespoke loop rather than the per-state dsp::Viterbi.
  const std::size_t states = std::size_t{1} << tags;
  const std::size_t n = points.size();
  std::vector<double> score(states, -1e300);
  score[0] = 0.0;  // every tag idle at level 0 before its anchor
  std::vector<double> next(states);
  std::vector<std::uint8_t> backptr(n * states, 0);

  for (std::size_t k = 0; k < n; ++k) {
    bool can[8];
    for (std::size_t t = 0; t < tags; ++t) can[t] = toggles[t][k];
    for (std::size_t to = 0; to < states; ++to) {
      double best = -1e300;
      std::uint8_t arg = 0;
      for (std::size_t from = 0; from < states; ++from) {
        Complex expected{};
        double prior = 0.0;
        bool feasible = true;
        for (std::size_t t = 0; t < tags; ++t) {
          const int l = static_cast<int>((from >> t) & 1u);
          const int lp = static_cast<int>((to >> t) & 1u);
          if (l != lp && !can[t]) {
            feasible = false;
            break;
          }
          expected += static_cast<double>(lp - l) * vectors[t];
          if (can[t]) prior += (l != lp) ? log_edge : log_hold;
        }
        if (!feasible) continue;
        const double cand =
            score[from] + prior -
            std::norm(points[k] - expected) * inv_two_sigma2;
        if (cand > best) {
          best = cand;
          arg = static_cast<std::uint8_t>(from);
        }
      }
      next[to] = best;
      backptr[k * states + to] = arg;
    }
    score.swap(next);
  }

  std::size_t state = 0;
  double best = score[0];
  double second = -1e300;
  for (std::size_t s = 1; s < states; ++s) {
    if (score[s] > best) {
      second = best;
      best = score[s];
      state = s;
    } else if (score[s] > second) {
      second = score[s];
    }
  }
  JointResult out;
  out.margin = (second > -1e299) ? best - second : 0.0;
  out.levels.assign(tags, std::vector<bool>(n));
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t t = 0; t < tags; ++t) {
      out.levels[t][k] = ((state >> t) & 1u) != 0;
    }
    state = backptr[k * states + state];
  }
  return out;
}

ErrorCorrector::SoftResult ErrorCorrector::run(
    std::span<const Complex> points, Complex rising, Complex falling,
    Complex constant, std::span<const Complex> rising_pts,
    std::span<const Complex> falling_pts,
    std::span<const Complex> constant_pts,
    std::span<const double> confidences) const {
  LFBS_CHECK(!points.empty());
  const double scale = std::max(std::abs(rising), std::abs(falling));

  const dsp::Gaussian2D g_rise =
      fit_or_default(rising_pts, rising, scale, config_.min_sigma);
  const dsp::Gaussian2D g_fall =
      fit_or_default(falling_pts, falling, scale, config_.min_sigma);
  const dsp::Gaussian2D g_hold =
      fit_or_default(constant_pts, constant, scale, config_.min_sigma);

  // Erasure emissions: the same cluster means with inflated sigmas, so a
  // distrusted observation barely discriminates between states and the
  // transition structure decides.
  const auto widen = [&](dsp::Gaussian2D g) {
    g.sigma_i *= kErasureSigmaScale;
    g.sigma_q *= kErasureSigmaScale;
    g.rho = 0.0;
    return g;
  };
  const dsp::Gaussian2D w_rise = widen(g_rise);
  const dsp::Gaussian2D w_fall = widen(g_fall);
  const dsp::Gaussian2D w_hold = widen(g_hold);

  SoftResult out;
  std::vector<bool> erased(points.size(), false);
  if (!confidences.empty()) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (confidences[i] < kErasureThreshold) {
        erased[i] = true;
        ++out.erasures;
      }
    }
  }

  const double log_edge = std::log(config_.edge_probability);
  const double log_hold = std::log(1.0 - config_.edge_probability);
  const double kNo = dsp::Viterbi::kForbidden;

  // Rows: from-state; columns: to-state {↑, ↓, −₊, −₋}. After ↑ or −₊ the
  // level is 1, so the next boundary is either a falling edge or a hold at
  // 1; symmetrically for level 0.
  std::vector<std::vector<double>> transition = {
      /* from ↑  */ {kNo, log_edge, log_hold, kNo},
      /* from ↓  */ {log_edge, kNo, kNo, log_hold},
      /* from −₊ */ {kNo, log_edge, log_hold, kNo},
      /* from −₋ */ {log_edge, kNo, kNo, log_hold},
  };
  // The first boundary of a stream is the idle→anchor rising edge.
  std::vector<double> initial = {0.0, kNo, kNo, kNo};

  const dsp::Viterbi viterbi(std::move(transition), std::move(initial));
  const auto emission = [&](std::size_t step, std::size_t state) {
    const Complex& z = points[step];
    const bool wide = erased[step];
    switch (state) {
      case kRising:
        return (wide ? w_rise : g_rise).log_pdf(z);
      case kFalling:
        return (wide ? w_fall : g_fall).log_pdf(z);
      default:
        return (wide ? w_hold : g_hold).log_pdf(z);
    }
  };
  const dsp::Viterbi::Path path = viterbi.decode(points.size(), emission);

  out.bits.reserve(points.size());
  for (std::size_t s : path.states) {
    out.bits.push_back(s == kRising || s == kHoldHigh);
  }
  out.bit_margins = path.margins;
  out.path_margin = path.final_margin;
  out.log_score = path.log_score;
  return out;
}

}  // namespace lfbs::core
