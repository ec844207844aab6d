#include "signal/edge_detector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dsp/peaks.h"
#include "dsp/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::signal {

double edge_confidence(double snr_db) {
  // Logistic centred at 11 dB with a 3 dB scale: 6-sigma detections
  // (~15.6 dB) map to ~0.82, the 2.5-sigma degraded-mode floor (~8 dB)
  // to ~0.27.
  return 1.0 / (1.0 + std::exp(-(snr_db - 11.0) / 3.0));
}

EdgeDetector::EdgeDetector(EdgeDetectorConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK(config_.window >= 1);
  LFBS_CHECK(config_.min_separation >= 1);
}

std::vector<double> EdgeDetector::differential_magnitude(
    const SampleBuffer& buffer) const {
  const auto xs = buffer.span();
  const auto n = static_cast<SampleIndex>(xs.size());
  std::vector<double> out(xs.size(), 0.0);
  if (n == 0) return out;

  // Prefix sums for O(1) windowed means.
  std::vector<Complex> prefix(xs.size() + 1);
  for (std::size_t i = 0; i < xs.size(); ++i) prefix[i + 1] = prefix[i] + xs[i];
  const auto sum = [&](SampleIndex lo, SampleIndex hi) {  // [lo, hi)
    return prefix[static_cast<std::size_t>(hi)] -
           prefix[static_cast<std::size_t>(lo)];
  };

  const auto w = static_cast<SampleIndex>(config_.window);
  const auto g = static_cast<SampleIndex>(config_.guard);
  // Near either end a window is cut to the part inside the buffer.
  const auto clamped = [&](SampleIndex i) {
    const SampleIndex before_lo = std::clamp<SampleIndex>(i - g - w, 0, n);
    const SampleIndex before_hi = std::clamp<SampleIndex>(i - g, 0, n);
    const SampleIndex after_lo = std::clamp<SampleIndex>(i + g, 0, n);
    const SampleIndex after_hi = std::clamp<SampleIndex>(i + g + w, 0, n);
    const auto nb = static_cast<double>(before_hi - before_lo);
    const auto na = static_cast<double>(after_hi - after_lo);
    if (nb < 1.0 || na < 1.0) return;  // too close to the buffer edge
    const Complex before = sum(before_lo, before_hi) / nb;
    const Complex after = sum(after_lo, after_hi) / na;
    out[static_cast<std::size_t>(i)] = std::abs(after - before);
  };

  // Interior [reach, n - reach]: both windows are whole, so no clamps.
  // The before window of sample i is the w-sample window starting at
  // i - reach and the after window the one starting at i + g, so each
  // window mean is computed once, with the same expression (and so the
  // same double) as the clamped path, and |dS| is one difference.
  const SampleIndex reach = g + w;
  const SampleIndex interior_begin = std::min(reach, n);
  const SampleIndex interior_end = std::max(interior_begin, n - reach + 1);
  for (SampleIndex i = 0; i < interior_begin; ++i) clamped(i);
  for (SampleIndex i = interior_end; i < n; ++i) clamped(i);
  if (interior_begin < interior_end) {
    // The window means overwrite the prefix sums in place: entry j is
    // read (with j + w, not yet overwritten) just before it is replaced.
    const auto width = static_cast<double>(w);
    std::vector<Complex>& means = prefix;
    for (SampleIndex j = 0; j + w <= n; ++j) {
      means[static_cast<std::size_t>(j)] = sum(j, j + w) / width;
    }
    for (SampleIndex i = interior_begin; i < interior_end; ++i) {
      out[static_cast<std::size_t>(i)] =
          std::abs(means[static_cast<std::size_t>(i + g)] -
                   means[static_cast<std::size_t>(i - reach)]);
    }
  }
  return out;
}

std::vector<Edge> EdgeDetector::detect(const SampleBuffer& buffer) const {
  LFBS_OBS_SPAN(span, "detect", "signal");
  span.attr("samples", static_cast<double>(buffer.size()));
  static obs::Counter& runs = obs::metrics().counter("signal.detect_runs");
  static obs::Counter& detected =
      obs::metrics().counter("signal.edges_detected");
  runs.add();
  const std::vector<double> d = differential_magnitude(buffer);
  if (d.empty()) return {};

  // Robust threshold: edges are temporally sparse, so the median of |dS|
  // tracks the noise floor even with many tags transmitting. The global
  // estimate is always computed — it is the detection threshold in the
  // default (seed) mode and the fallback SNR reference in adaptive mode.
  const double med = dsp::median(d);
  std::vector<double> dev(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) dev[i] = std::abs(d[i] - med);
  const double mad = dsp::median(dev);
  NoiseEstimate global;
  global.floor = med;
  global.spread = 1.4826 * mad;
  const double threshold =
      global.threshold(config_.threshold_sigma, config_.min_strength);

  // Adaptive mode: blockwise rolling estimates. Peak-pick at the laxest
  // blockwise threshold, then re-gate each peak against its own block so a
  // quiet stretch keeps a low threshold while a noisy one stays strict.
  std::vector<NoiseEstimate> blocks;
  double pick_threshold = threshold;
  if (config_.adaptive_threshold) {
    blocks = NoiseTracker::track_series(d, config_.noise);
    for (const NoiseEstimate& est : blocks) {
      pick_threshold = std::min(
          pick_threshold,
          est.threshold(config_.threshold_sigma, config_.min_strength));
    }
  }
  const auto local_estimate = [&](std::size_t index) -> const NoiseEstimate& {
    if (blocks.empty()) return global;
    const std::size_t block = std::max<std::size_t>(config_.noise.block, 8);
    return blocks[std::min(index / block, blocks.size() - 1)];
  };

  dsp::PeakOptions opts;
  opts.min_value = pick_threshold;
  opts.min_distance = config_.min_separation;
  std::vector<dsp::Peak> peaks = dsp::find_peaks(d, opts);

  std::vector<Edge> edges;
  edges.reserve(peaks.size());
  for (const dsp::Peak& p : peaks) {
    const NoiseEstimate& est = local_estimate(p.index);
    if (config_.adaptive_threshold &&
        d[p.index] <
            est.threshold(config_.threshold_sigma, config_.min_strength)) {
      continue;
    }
    Edge e;
    // Parabolic sub-sample refinement of the |dS| peak.
    double refined = static_cast<double>(p.index);
    if (p.index > 0 && p.index + 1 < d.size()) {
      const double dm = d[p.index - 1];
      const double d0 = d[p.index];
      const double dp = d[p.index + 1];
      const double denom = dm - 2.0 * d0 + dp;
      if (denom < -1e-18) {
        const double shift = 0.5 * (dm - dp) / denom;
        if (std::abs(shift) <= 1.0) refined += shift;
      }
    }
    e.position = refined;
    e.differential =
        differential_at(buffer.span(), static_cast<SampleIndex>(std::llround(refined)),
                        config_.window, config_.guard);
    e.strength = std::abs(e.differential);
    e.snr_db = est.snr_db(e.strength);
    e.confidence = edge_confidence(e.snr_db);
    edges.push_back(e);
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.position < b.position; });
  detected.add(edges.size());
  span.attr("edges", static_cast<double>(edges.size()));
  return edges;
}

Complex EdgeDetector::differential_at(std::span<const Complex> samples,
                                      SampleIndex position, std::size_t window,
                                      std::size_t guard) {
  const auto g = static_cast<SampleIndex>(guard);
  const Complex before =
      windowed_mean_before(samples, position - g, window);
  const Complex after = windowed_mean_after(samples, position + g, window);
  return after - before;
}

}  // namespace lfbs::signal
