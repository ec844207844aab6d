#include "core/lf_decoder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <tuple>

#include "common/check.h"
#include "common/rng.h"
#include "core/bit_decoder.h"
#include "dsp/linalg.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::core {

namespace {

/// Sentinel for "no measured edge at this slot" in BoundarySlots::snrs.
constexpr double kNoEdgeSnr = -1e9;

/// The relaxed-detection fallback rungs never drop threshold_sigma below this.
constexpr double kRelaxedFloorSigma = 2.5;

/// Boundary slots of one group: mid positions, the span of the group's own
/// measured edges, and the extracted IQ differential per boundary.
struct BoundarySlots {
  std::vector<double> positions;
  std::vector<Complex> diffs;
  /// Per-slot soft decision: the (weakest) detected edge's confidence, or
  /// 1.0 where no edge was detected ("confidently no edge" — the hold
  /// states are as trustworthy as the detection threshold is strict).
  std::vector<double> confidences;
  /// Per-slot edge SNR in dB; kNoEdgeSnr where no edge was detected.
  std::vector<double> snrs;

  /// Mean detected-edge SNR over the lattice [start, start+step, ...].
  double mean_snr(std::size_t start, std::size_t step) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t k = start; k < snrs.size(); k += step) {
      if (snrs[k] > kNoEdgeSnr) {
        sum += snrs[k];
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }
  /// Mean per-slot confidence over the lattice.
  double mean_confidence(std::size_t start, std::size_t step) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t k = start; k < confidences.size(); k += step) {
      sum += confidences[k];
      ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 1.0;
  }
};

/// A decoded stream before framing (untrimmed bits, no frames yet), with
/// the bit lattice that maps its bits back onto the pass's boundary slots.
struct Pending {
  DecodedStream stream;
  std::size_t slots_ref = 0;  ///< index into the pass's slot store
  std::size_t start = 0;      ///< first slot of this stream's bit lattice
  std::size_t step = 1;       ///< slots per bit
};

/// Residue-consensus step estimation over component boundary indices.
std::pair<std::size_t, std::size_t> component_step(
    const std::vector<std::size_t>& nonzero, std::size_t total,
    std::vector<std::size_t> allowed, double consensus) {
  if (nonzero.empty()) return {1, 0};
  std::sort(allowed.begin(), allowed.end(), std::greater<>());
  for (std::size_t step : allowed) {
    if (step == 0 || step > total) continue;
    std::map<std::size_t, std::size_t> residues;
    for (std::size_t n : nonzero) ++residues[n % step];
    const auto dominant = std::max_element(
        residues.begin(), residues.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    const double share = static_cast<double>(dominant->second) /
                         static_cast<double>(nonzero.size());
    if (share >= consensus) {
      for (std::size_t n : nonzero) {
        if (n % step == dominant->first) return {step, n};
      }
    }
  }
  return {1, nonzero.front()};
}

/// Drops trailing frames that are entirely zero — the decoded level after a
/// tag goes idle — so they don't count as CRC failures.
void trim_trailing_zeros(std::vector<bool>& bits, std::size_t frame_bits) {
  while (bits.size() >= frame_bits) {
    const bool all_zero =
        std::none_of(bits.end() - static_cast<std::ptrdiff_t>(frame_bits),
                     bits.end(), [](bool b) { return b; });
    if (!all_zero) break;
    bits.resize(bits.size() - frame_bits);
  }
}

std::size_t stream_valid_frames(const DecodedStream& s) {
  std::size_t n = 0;
  for (const auto& f : s.frames) {
    if (f.valid()) ++n;
  }
  return n;
}

/// State shared by the stages of one decode pass (DESIGN.md §4).
struct Pass {
  Pass(const signal::SampleBuffer& buffer, const DecoderConfig& cfg)
      : buffer(buffer),
        cfg(cfg),
        rng(cfg.seed),
        spb(samples_per_bit(buffer.sample_rate(), cfg.max_rate)),
        fs_scale(cfg.auto_scale_edge
                     ? buffer.sample_rate() / (25.0 * kMsps)
                     : 1.0),
        group_tolerance(std::max(1.2, cfg.group_tolerance * fs_scale)),
        merge_radius(std::max(2.0, cfg.merge_radius * fs_scale)),
        detector(cfg.collision),
        separator(cfg.separator),
        corrector(cfg.corrector) {}

  const signal::SampleBuffer& buffer;
  const DecoderConfig& cfg;
  /// One draw order across the groups: each group's assessment, its
  /// single-stream k-means or 9-cluster refit, then its split halves.
  Rng rng;
  const double spb;
  // Grouping tolerances are physical times (edge ramp ~0.12 us, position
  // noise), not sample counts: the configured values are defined at the
  // paper's 25 Msps and scale with the ADC rate, so decoding works
  // identically at 2.5 and 25 Msps.
  const double fs_scale;
  const double group_tolerance;
  const double merge_radius;
  const CollisionDetector detector;
  const CollisionSeparator separator;
  const ErrorCorrector corrector;

  std::vector<signal::Edge> edges;
  StreamDetectorConfig sc;
  std::vector<StreamGroup> groups;
  /// One slot set per group, then one per residual-split half.
  std::vector<BoundarySlots> all_slots;
  std::vector<Pending> pending;
  DecodeResult result;
};

/// Stage 1: edge detection.
void detect_edges(Pass& p) {
  signal::EdgeDetectorConfig ec = p.cfg.edge;
  if (p.cfg.auto_scale_edge) {
    // Short detection windows: long ones smear neighbouring tags' edges
    // together. Boundary re-measurement below re-averages with windows
    // stretched to just short of the neighbouring edges, recovering SNR.
    ec.window = static_cast<std::size_t>(std::clamp(p.spb / 12.0, 2.0, 3.0));
    ec.guard = 1;
    // |dS| plateaus for about 2·guard + ramp samples around an edge; a
    // smaller separation would report one physical edge twice. Edges of
    // *different* tags closer than this merge into a single detection and
    // are handled as a collision — this is the system's collision radius,
    // and it should stay near the physical edge width (§2.4).
    ec.min_separation = std::max<std::size_t>(
        3, static_cast<std::size_t>(5.0 * p.fs_scale));
  }
  p.edges = signal::EdgeDetector(ec).detect(p.buffer);
  p.result.diagnostics.edges = p.edges.size();
}

/// Stage 2: stream grouping.
void group_streams(Pass& p) {
  p.sc.lattice_period = p.spb;
  p.sc.base_tolerance = p.group_tolerance;
  p.sc.drift_tolerance_ppm = p.cfg.drift_tolerance_ppm;
  p.sc.min_edges = p.cfg.min_edges;
  p.sc.merge_radius = p.merge_radius;
  for (BitRate r : p.cfg.rate_plan.rates) {
    const double m = p.cfg.max_rate / r;
    if (std::abs(m - std::round(m)) < 1e-6) {
      p.sc.valid_steps.push_back(static_cast<std::int64_t>(std::llround(m)));
    }
  }
  p.groups = StreamDetector(p.sc).detect(p.edges);
  p.result.diagnostics.groups = p.groups.size();
}

/// Stage 3: boundary differential extraction. Keyed on the group itself
/// (its own edges span the measurement; all other edges bound the
/// averaging windows), so the residual split reuses it for its halves.
BoundarySlots extract_slots(const Pass& p, const StreamGroup& group) {
  const std::vector<signal::Edge>& edges = p.edges;
  const double bguard = 4.0;
  std::vector<bool> member(edges.size(), false);
  for (std::size_t ei : group.edge_indices) member[ei] = true;

  struct MeasuredEdge {
    double lead, trail;
    double confidence, snr_db;
  };
  std::map<std::int64_t, MeasuredEdge> measured;
  for (std::size_t k = 0; k < group.edge_indices.size(); ++k) {
    const signal::Edge& e = edges[group.edge_indices[k]];
    const auto epos = static_cast<double>(e.position);
    const std::int64_t slot = group.lattice_indices[k];
    auto [it, inserted] = measured.try_emplace(
        slot, MeasuredEdge{epos, epos, e.confidence, e.snr_db});
    if (!inserted) {
      it->second.lead = std::min(it->second.lead, epos);
      it->second.trail = std::max(it->second.trail, epos);
      // Merged (colliding) detections: keep the weakest link.
      it->second.confidence = std::min(it->second.confidence, e.confidence);
      it->second.snr_db = std::min(it->second.snr_db, e.snr_db);
    }
  }
  std::vector<double> foreign_positions;
  foreign_positions.reserve(edges.size());
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    if (!member[ei]) {
      foreign_positions.push_back(static_cast<double>(edges[ei].position));
    }
  }

  const double bit_period = group.slope * static_cast<double>(group.step);
  const auto wmax =
      static_cast<std::size_t>(std::clamp(bit_period / 3.0, 2.0, 40.0));
  const double tail_margin = static_cast<double>(wmax) + bguard + 1.0;

  BoundarySlots slots;
  for (std::int64_t n = group.start_index;; n += group.step) {
    const double predicted = group.position_of(n);
    double lead = predicted, trail = predicted;
    double slot_conf = 1.0;
    double slot_snr = kNoEdgeSnr;
    const auto it = measured.find(n);
    if (it != measured.end()) {
      lead = it->second.lead;
      trail = it->second.trail;
      slot_conf = it->second.confidence;
      slot_snr = it->second.snr_db;
    }
    if (trail >= static_cast<double>(p.buffer.size()) - tail_margin) break;
    if (lead < tail_margin) continue;

    double before_gap = 1e9, after_gap = 1e9;
    const auto lo =
        std::lower_bound(foreign_positions.begin(), foreign_positions.end(),
                         lead - p.group_tolerance);
    if (lo != foreign_positions.begin()) before_gap = lead - *(lo - 1);
    const auto hi =
        std::upper_bound(foreign_positions.begin(), foreign_positions.end(),
                         trail + p.group_tolerance);
    if (hi != foreign_positions.end()) after_gap = *hi - trail;
    const double gb = std::clamp(before_gap / 3.0, 1.0, bguard);
    const double ga = std::clamp(after_gap / 3.0, 1.0, bguard);
    const auto wb = static_cast<std::size_t>(
        std::clamp(before_gap - gb - 1.0, 2.0, static_cast<double>(wmax)));
    const auto wa = static_cast<std::size_t>(
        std::clamp(after_gap - ga - 1.0, 2.0, static_cast<double>(wmax)));

    const Complex before = signal::windowed_mean_before(
        p.buffer.span(), static_cast<SampleIndex>(std::llround(lead - gb)),
        wb);
    const Complex after = signal::windowed_mean_after(
        p.buffer.span(), static_cast<SampleIndex>(std::llround(trail + ga)),
        wa);
    slots.positions.push_back(0.5 * (lead + trail));
    slots.diffs.push_back(after - before);
    slots.confidences.push_back(slot_conf);
    slots.snrs.push_back(slot_snr);
  }
  return slots;
}

/// Stage 4, single stream: decodes the differentials `diffs` of slot set
/// `slots_ref` as one tag — 3-means, then the soft Viterbi (or, with error
/// correction off, the integrated hard states). `lattice_step` is the
/// owning group's bit-period step (sets the reported rate).
Pending decode_single(const Pass& p, std::size_t slots_ref,
                      std::int64_t lattice_step,
                      std::span<const Complex> diffs, Rng& rng) {
  const BoundarySlots& slots = p.all_slots[slots_ref];
  Pending ps;
  ps.slots_ref = slots_ref;
  DecodedStream& s = ps.stream;
  s.start_sample = slots.positions.front();
  s.rate = p.cfg.max_rate / static_cast<double>(lattice_step);
  s.confidence.edge_snr_db = slots.mean_snr(0, 1);
  s.confidence.edge_confidence = slots.mean_confidence(0, 1);
  if (diffs.size() < 3) {
    s.edge_vector = diffs.front();
    s.bits = integrate_states(classify_simple(diffs));
    return ps;
  }
  const dsp::KMeansResult fit =
      dsp::kmeans(diffs, 3, rng, p.cfg.collision.kmeans);
  const ThreeClusterLabels labels = label_three_clusters(diffs, fit);
  s.edge_vector = 0.5 * (labels.rising - labels.falling);
  double residual2 = 0.0;
  for (std::size_t k = 0; k < diffs.size(); ++k) {
    const Complex expected = labels.states[k] == 1    ? labels.rising
                             : labels.states[k] == -1 ? labels.falling
                                                      : labels.constant;
    residual2 += std::norm(diffs[k] - expected);
  }
  residual2 /= static_cast<double>(diffs.size());
  s.snr_db =
      linear_to_db(std::norm(s.edge_vector) / std::max(residual2, 1e-18));
  // Cluster separation: the closest centroid pair over the intra-cluster
  // scatter — how unambiguous the rising/falling/constant decision was.
  double min_dist2 = 1e300;
  for (std::size_t a = 0; a < fit.centroids.size(); ++a) {
    for (std::size_t b = a + 1; b < fit.centroids.size(); ++b) {
      min_dist2 =
          std::min(min_dist2, std::norm(fit.centroids[a] - fit.centroids[b]));
    }
  }
  s.confidence.cluster_separation =
      std::sqrt(min_dist2 / std::max(residual2, 1e-18));
  if (!p.cfg.error_correction) {
    s.bits = integrate_states(labels.states);
    return ps;
  }
  const ErrorCorrector::SoftResult soft =
      p.corrector.correct_soft(diffs, labels, slots.confidences);
  s.bits = soft.bits;
  s.confidence.erasures = soft.erasures;
  double margin_sum = 0.0;
  for (double m : soft.bit_margins) margin_sum += m;
  s.confidence.path_margin =
      soft.bit_margins.empty()
          ? 0.0
          : margin_sum / static_cast<double>(soft.bit_margins.size());
  return ps;
}

/// Stage 4, over-merge recovery: a "collision" group that resists
/// separation may really be two tags whose lattice phases were close
/// enough to fuse. If the positional residuals against the joint fit are
/// bimodal, split the group at the widest residual gap and decode the
/// halves as their own streams. Returns false, decoding nothing, when the
/// group does not split or a half has no boundary inside the capture.
bool decode_split(Pass& p, const StreamGroup& group) {
  if (group.edge_indices.size() < 2 * p.sc.min_edges) return false;
  struct Member {
    double residual;
    std::size_t k;
  };
  std::vector<Member> members;
  members.reserve(group.edge_indices.size());
  for (std::size_t k = 0; k < group.edge_indices.size(); ++k) {
    const double pos =
        static_cast<double>(p.edges[group.edge_indices[k]].position);
    members.push_back({pos - group.position_of(group.lattice_indices[k]), k});
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) {
              return a.residual < b.residual;
            });
  // Widest gap with enough members on both sides.
  double best_gap = 0.0;
  std::size_t split_at = 0;
  for (std::size_t i = p.sc.min_edges; i + p.sc.min_edges <= members.size();
       ++i) {
    const double gap = members[i].residual - members[i - 1].residual;
    if (gap > best_gap) {
      best_gap = gap;
      split_at = i;
    }
  }
  if (split_at == 0 || best_gap < 2.5) return false;

  const StreamDetector stream_detector(p.sc);
  const auto build = [&](std::size_t lo, std::size_t hi) {
    StreamGroup g;
    g.slope = group.slope;
    double mean_res = 0.0;
    std::vector<std::size_t> ks;
    for (std::size_t i = lo; i < hi; ++i) {
      mean_res += members[i].residual;
      ks.push_back(members[i].k);
    }
    mean_res /= static_cast<double>(hi - lo);
    g.intercept = group.intercept + mean_res;
    std::sort(ks.begin(), ks.end());
    for (std::size_t k : ks) {
      g.edge_indices.push_back(group.edge_indices[k]);
      g.lattice_indices.push_back(group.lattice_indices[k]);
    }
    const auto [step, residue] =
        stream_detector.estimate_step(g.lattice_indices);
    g.step = step;
    g.start_index = residue;
    return g;
  };
  const std::array<StreamGroup, 2> halves{build(0, split_at),
                                          build(split_at, members.size())};
  std::array<BoundarySlots, 2> slots{extract_slots(p, halves[0]),
                                     extract_slots(p, halves[1])};
  if (slots[0].diffs.empty() || slots[1].diffs.empty()) return false;
  for (std::size_t h = 0; h < 2; ++h) {
    // The halves' slots join the store: the cancellation stage maps their
    // bits back onto these positions.
    p.all_slots.push_back(std::move(slots[h]));
    const std::size_t ref = p.all_slots.size() - 1;
    p.pending.push_back(decode_single(p, ref, halves[h].step,
                                      p.all_slots[ref].diffs, p.rng));
    p.pending.back().stream.collided = true;
  }
  return true;
}

/// Stage 5: decodes a K-tag separation of group `gi` — anchor
/// normalization, per-component bit lattices from the hard states, the
/// noise level, then the 2^K-state joint Viterbi (or, with error
/// correction off, each component's integrated hard states). A two-tag
/// separation first refines its edge vectors and the residual receiver
/// offset by least squares. Returns false, decoding nothing, when a
/// component never toggles.
bool decode_separation(Pass& p, std::size_t gi, const Separation& sep) {
  const StreamGroup& group = p.groups[gi];
  const BoundarySlots& slots = p.all_slots[gi];
  const std::size_t tags = sep.vectors.size();
  const std::size_t n = slots.diffs.size();
  // Candidate component sub-steps, in joint-boundary units.
  std::vector<std::size_t> allowed;
  for (std::int64_t m : p.sc.valid_steps) {
    if (m % group.step == 0) {
      allowed.push_back(static_cast<std::size_t>(m / group.step));
    }
  }
  // Each tag's first toggle is its rising anchor.
  std::vector<std::vector<EdgeState>> states = sep.states;
  std::vector<Complex> evec = sep.vectors;
  for (std::size_t t = 0; t < tags; ++t) {
    if (normalize_anchor(states[t])) evec[t] = -evec[t];
  }
  Complex offset{};
  if (tags == 2) {
    dsp::Matrix design(n, 3);
    for (std::size_t k = 0; k < n; ++k) {
      design.at(k, 0) = static_cast<double>(states[0][k]);
      design.at(k, 1) = static_cast<double>(states[1][k]);
      design.at(k, 2) = 1.0;
    }
    const std::vector<Complex> coef =
        dsp::least_squares(design, slots.diffs, 1e-9);
    if (coef.size() == 3) {
      const double floor =
          0.2 * std::min(std::abs(evec[0]), std::abs(evec[1]));
      if (std::abs(coef[0]) > floor && std::abs(coef[1]) > floor) {
        evec[0] = coef[0];
        evec[1] = coef[1];
        offset = coef[2];
      }
    }
  }
  std::vector<std::size_t> starts(tags), steps(tags);
  std::vector<std::vector<bool>> toggles(tags);
  for (std::size_t t = 0; t < tags; ++t) {
    std::vector<std::size_t> nz;  // the boundaries where tag t toggles
    for (std::size_t k = 0; k < n; ++k) {
      if (states[t][k] != 0) nz.push_back(k);
    }
    if (nz.empty()) return false;
    std::tie(steps[t], starts[t]) =
        component_step(nz, n, allowed, p.sc.step_consensus);
    toggles[t].assign(n, false);
    for (std::size_t k = starts[t]; k < n; k += steps[t]) {
      toggles[t][k] = true;
    }
  }
  double sigma2 = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex expected{};
    for (std::size_t t = 0; t < tags; ++t) {
      expected += static_cast<double>(states[t][k]) * evec[t];
    }
    sigma2 += std::norm(slots.diffs[k] - (expected + offset));
  }
  const double sigma =
      std::sqrt(sigma2 / (2.0 * static_cast<double>(n)) + 1e-18);

  ErrorCorrector::JointResult joint;
  if (p.cfg.error_correction) {
    std::vector<Complex> centered(slots.diffs.begin(), slots.diffs.end());
    for (Complex& z : centered) z -= offset;
    joint = p.corrector.correct_joint(centered, evec, toggles, sigma);
  }
  for (std::size_t t = 0; t < tags; ++t) {
    Pending ps;
    ps.slots_ref = gi;
    ps.start = starts[t];
    ps.step = steps[t];
    DecodedStream& s = ps.stream;
    s.collided = true;
    s.start_sample = slots.positions[starts[t]];
    s.rate = p.cfg.max_rate / static_cast<double>(group.step * steps[t]);
    if (p.cfg.error_correction) {
      for (std::size_t k = starts[t]; k < n; k += steps[t]) {
        s.bits.push_back(joint.levels[t][k]);
      }
      s.confidence.path_margin = joint.margin / static_cast<double>(n);
    } else {
      s.bits = integrate_states(
          subsample_states(states[t], starts[t], steps[t]));
    }
    s.edge_vector = evec[t];
    s.snr_db = linear_to_db(std::norm(evec[t]) /
                            std::max(2.0 * sigma * sigma, 1e-18));
    s.confidence.edge_snr_db = slots.mean_snr(starts[t], steps[t]);
    s.confidence.edge_confidence = slots.mean_confidence(starts[t], steps[t]);
    p.pending.push_back(std::move(ps));
  }
  return true;
}

/// Stage 4: decodes group `gi`. The collision assessment picks one path:
/// a single stream; a three-way separation, then the 9-cluster refit of
/// one that fails; a two-way separation; or, when no separation exists,
/// the halves of a residual split. A group none of these resolve is
/// decoded as a single stream and counted unresolved.
void decode_group(Pass& p, std::size_t gi) {
  const StreamGroup& group = p.groups[gi];
  DecodeDiagnostics& diag = p.result.diagnostics;
  const std::vector<Complex>& diffs = p.all_slots[gi].diffs;
  if (diffs.empty()) return;

  CollisionAssessment assess;  // one collider unless assessed otherwise
  if (p.cfg.collision_recovery) assess = p.detector.assess(diffs, p.rng);
  if (assess.colliders == 1) {
    p.pending.push_back(decode_single(p, gi, group.step, diffs, p.rng));
    return;
  }
  dsp::KMeansResult fit9 = std::move(assess.fit);
  if (assess.colliders >= 3) {
    // Three-way collisions are rare (P ≈ 0.018 at the paper's 16-node /
    // 100 kbps point). The paper defers them to the next epoch's fresh
    // random offsets (§3.2); as an extension we first attempt a full
    // 3-tag separation against the 27-cluster grid, decoded jointly, then
    // fall back to a two-tag separation of the strongest components, then
    // to deferral.
    if (p.cfg.error_correction) {
      const auto separation = p.separator.separate(diffs, fit9);
      if (separation.has_value() && decode_separation(p, gi, *separation)) {
        ++diag.collision_groups;
        return;
      }
    }
    ++diag.unresolved_groups;
    if (diffs.size() < 9) return;
    fit9 = dsp::kmeans(diffs, 9, p.rng, p.cfg.collision.kmeans);
  }

  if (const auto separation = p.separator.separate(diffs, fit9)) {
    ++diag.collision_groups;
    if (decode_separation(p, gi, *separation)) return;
  } else if (decode_split(p, group)) {
    ++diag.collision_groups;
    return;
  }
  // decode_split adds slot sets only when it succeeds, so `diffs` still
  // refers into the store here.
  ++diag.unresolved_groups;
  p.pending.push_back(decode_single(p, gi, group.step, diffs, p.rng));
}

/// Stage 6: framing. Trims the idle tail off the stream's bits, then
/// parses them rigidly from the anchor.
DecodedStream frame(DecodedStream stream, const protocol::FrameConfig& fc) {
  trim_trailing_zeros(stream.bits, fc.frame_bits());
  stream.frames = protocol::parse_stream(stream.bits, fc);
  // A missed or spurious edge can slip the bit stream and poison every
  // later frame of the rigid parse; re-scan with CRC resynchronization
  // and keep whichever recovers more frames.
  const std::size_t ok = stream_valid_frames(stream);
  if (ok < stream.frames.size()) {
    auto rescued = protocol::scan_frames(stream.bits, fc);
    if (rescued.size() > ok) stream.frames = std::move(rescued);
  }
  return stream;
}

/// Stage 7: transient-interference cancellation. Two streams whose offsets
/// drift *through* each other mid-epoch corrupt a burst of boundaries (the
/// foreign edge sits inside the measurement span for tens of bits). For
/// CRC-failed frames, subtract the decoded edge contributions of CRC-valid
/// frames of other streams at nearby boundary positions and re-decode. Two
/// rounds: streams repaired in round one can donate their contributions in
/// round two.
void cancel_interference(Pass& p) {
  std::vector<DecodedStream>& streams = p.result.streams;
  const double zone = p.group_tolerance + 1.5;
  const std::size_t frame_bits = p.cfg.frame.frame_bits();
  struct Contribution {
    double position;
    Complex vector;
    std::size_t stream;
  };
  for (int round = 0; round < 2; ++round) {
    std::vector<Contribution> confident;
    for (std::size_t si = 0; si < streams.size(); ++si) {
      // A stream donates through its first-pass record — untrimmed bits
      // and edge vector — even after a round-one repair replaced
      // streams[si]. Valid frame fi is taken to span bits
      // [fi·frame_bits, (fi+1)·frame_bits).
      const Pending& ps = p.pending[si];
      const std::vector<bool>& bits = ps.stream.bits;
      const BoundarySlots& slots = p.all_slots[ps.slots_ref];
      // Contribute only boundaries inside CRC-valid frames: bits decoded
      // elsewhere are not trustworthy.
      for (std::size_t fi = 0; fi < streams[si].frames.size(); ++fi) {
        if (!streams[si].frames[fi].valid()) continue;
        const std::size_t bit_lo = fi * frame_bits;
        const std::size_t bit_hi = std::min(bits.size(), (fi + 1) * frame_bits);
        bool prev = bit_lo == 0 ? false : bits[bit_lo - 1];
        for (std::size_t j = bit_lo; j < bit_hi; ++j) {
          const std::size_t slot = ps.start + j * ps.step;
          if (slot >= slots.positions.size()) break;
          const int state = static_cast<int>(bits[j]) - static_cast<int>(prev);
          prev = bits[j];
          if (state != 0) {
            confident.push_back({slots.positions[slot],
                                 static_cast<double>(state) *
                                     ps.stream.edge_vector,
                                 si});
          }
        }
      }
    }
    std::sort(confident.begin(), confident.end(),
              [](const Contribution& a, const Contribution& b) {
                return a.position < b.position;
              });

    bool any_repaired = false;
    for (std::size_t si = 0; si < streams.size(); ++si) {
      const Pending& ps = p.pending[si];
      if (ps.stream.collided) continue;  // jointly decoded already
      if (streams[si].frames.empty()) continue;
      if (stream_valid_frames(streams[si]) == streams[si].frames.size()) {
        continue;
      }
      const BoundarySlots& slots = p.all_slots[ps.slots_ref];
      std::vector<Complex> corrected(slots.diffs.begin(), slots.diffs.end());
      bool touched = false;
      for (std::size_t k = 0; k < corrected.size(); ++k) {
        const double pos = slots.positions[k];
        auto it = std::lower_bound(
            confident.begin(), confident.end(), pos - zone,
            [](const Contribution& c, double v) { return c.position < v; });
        for (; it != confident.end() && it->position <= pos + zone; ++it) {
          if (it->stream == si) continue;
          corrected[k] -= it->vector;
          touched = true;
        }
      }
      if (!touched) continue;
      Rng krng(p.cfg.seed ^ (0x9e37ull + si + 131 * round));
      const auto lattice_step = static_cast<std::int64_t>(
          std::llround(p.cfg.max_rate / ps.stream.rate));
      DecodedStream redone = frame(
          decode_single(p, ps.slots_ref, lattice_step, corrected, krng).stream,
          p.cfg.frame);
      if (stream_valid_frames(redone) > stream_valid_frames(streams[si])) {
        streams[si] = std::move(redone);
        any_repaired = true;
      }
    }
    if (!any_repaired) break;
  }
}

}  // namespace

std::vector<std::vector<bool>> DecodeResult::valid_payloads() const {
  std::vector<std::vector<bool>> out;
  for (const DecodedStream& s : streams) {
    for (const protocol::ParsedFrame& f : s.frames) {
      if (f.valid()) out.push_back(f.payload);
    }
  }
  return out;
}

std::size_t DecodeResult::frames_attempted() const {
  std::size_t n = 0;
  for (const DecodedStream& s : streams) n += s.frames.size();
  return n;
}

std::size_t DecodeResult::frames_failed() const {
  std::size_t n = 0;
  for (const DecodedStream& s : streams) {
    for (const protocol::ParsedFrame& f : s.frames) {
      if (!f.valid()) ++n;
    }
  }
  return n;
}

LfDecoder::LfDecoder(DecoderConfig config) : config_(std::move(config)) {
  LFBS_CHECK(config_.max_rate > 0.0);
  LFBS_CHECK(!config_.rate_plan.rates.empty());
}

DecodeResult LfDecoder::decode_pass(const signal::SampleBuffer& buffer,
                                    const DecoderConfig& cfg) const {
  LFBS_OBS_SPAN(span, "decode_pass", "core");
  span.attr("samples", static_cast<double>(buffer.size()));
  static obs::Counter& passes = obs::metrics().counter("core.decode_passes");
  passes.add();
  if (buffer.empty()) return {};

  Pass p(buffer, cfg);
  detect_edges(p);
  if (p.edges.empty()) return std::move(p.result);
  group_streams(p);
  span.attr("groups", static_cast<double>(p.groups.size()));
  p.all_slots.reserve(p.groups.size());
  for (const StreamGroup& group : p.groups) {
    p.all_slots.push_back(extract_slots(p, group));
  }
  for (std::size_t gi = 0; gi < p.groups.size(); ++gi) decode_group(p, gi);

  p.result.streams.reserve(p.pending.size());
  for (const Pending& ps : p.pending) {
    p.result.streams.push_back(frame(ps.stream, cfg.frame));
  }
  if (cfg.collision_recovery && cfg.error_correction &&
      cfg.interference_cancellation) {
    cancel_interference(p);
  }
  for (const DecodedStream& s : p.result.streams) {
    p.result.diagnostics.erasures += s.confidence.erasures;
  }
  return std::move(p.result);
}

namespace {

std::size_t total_valid_frames(const DecodeResult& r) {
  std::size_t n = 0;
  for (const DecodedStream& s : r.streams) n += stream_valid_frames(s);
  return n;
}

/// Fallback fires only when a pass recovered *nothing* CRC-valid — the
/// "stream silently vanished" failure the ladder exists for. Partial CRC
/// failures are left alone: re-decoding a mostly-healthy capture with
/// degraded settings trades known-good structure (window seams, collision
/// assignments) for noise, and chronic partial failure is the health
/// ledger's and rate controller's job, not the demodulator's.
bool needs_fallback(const DecodeResult& r) {
  return total_valid_frames(r) == 0;
}

}  // namespace

DecodeResult LfDecoder::decode(const signal::SampleBuffer& buffer) const {
  DecodeResult result = decode_pass(buffer, config_);
  if (!config_.robustness.fallback) return result;
  if (buffer.empty() || !needs_fallback(result)) return result;

  // The Fig 9 degradation ladder, cheapest first. Later rungs deliberately
  // shed machinery (error correction, IQ separation) or relax detection —
  // each result is only trusted where the CRC agrees.
  struct Rung {
    FallbackStage stage;
    DecoderConfig cfg;
  };
  std::vector<Rung> ladder;
  {
    DecoderConfig c = config_;
    c.seed = config_.seed ^ 0xa5a5f00d5eedULL;  // perturbed k-means restarts
    ladder.push_back({FallbackStage::kReseeded, std::move(c)});
  }
  {
    DecoderConfig c = config_;
    c.error_correction = false;
    c.interference_cancellation = false;
    ladder.push_back({FallbackStage::kNoErrorCorrection, std::move(c)});
  }
  {
    DecoderConfig c = config_;
    c.collision_recovery = false;
    c.error_correction = false;
    c.interference_cancellation = false;
    ladder.push_back({FallbackStage::kEdgeOnly, std::move(c)});
  }
  for (const double scale : {0.65, 0.45}) {
    // Weak-edge re-detection: a fading channel pushes edges under the
    // nominal threshold, and the whole stream silently vanishes. Re-detect
    // with a lowered, adaptive (blockwise) threshold; the full chain then
    // runs on whatever appears, and the CRC arbitrates.
    DecoderConfig c = config_;
    c.edge.adaptive_threshold = true;
    c.edge.threshold_sigma = std::max(kRelaxedFloorSigma,
                                      config_.edge.threshold_sigma * scale);
    ladder.push_back({FallbackStage::kRelaxedDetection, std::move(c)});
  }

  // Match fallback streams to primary ones by sample-extent overlap: a
  // degraded re-detect of the same tag can shift the anchor by several bit
  // periods, so anchor proximity alone would mistake it for a new stream
  // and publish the tag twice.
  const double fs = buffer.sample_rate();
  const auto extent = [&](const DecodedStream& s) {
    const double len =
        s.rate > 0.0 ? static_cast<double>(s.bits.size()) * fs / s.rate : 0.0;
    return std::pair<double, double>(s.start_sample, s.start_sample + len);
  };
  // Fabrication guard for streams the primary pass never saw: a CRC-valid
  // frame must appear in the rigid anchor-aligned parse. scan_frames tries
  // every bit offset, which on a noise-only "stream" is thousands of
  // CRC-collision lottery tickets; the rigid parse only has L/frame_bits.
  const auto rigidly_valid = [&](const DecodedStream& s) {
    for (const auto& f : protocol::parse_stream(s.bits, config_.frame)) {
      if (f.valid()) return true;
    }
    return false;
  };
  static obs::Counter& fb_passes =
      obs::metrics().counter("core.fallback_passes");
  static obs::Counter& fb_recoveries =
      obs::metrics().counter("core.fallback_recoveries");
  for (const Rung& rung : ladder) {
    if (!needs_fallback(result)) break;
    LFBS_OBS_SPAN(rung_span, "fallback_pass", "core");
    rung_span.attr("stage", static_cast<double>(rung.stage));
    DecodeResult alt = decode_pass(buffer, rung.cfg);
    ++result.diagnostics.fallback_passes;
    fb_passes.add();
    for (DecodedStream& cand : alt.streams) {
      if (stream_valid_frames(cand) == 0) continue;  // CRC gate
      cand.confidence.stage = rung.stage;
      const auto [clo, chi] = extent(cand);
      DecodedStream* match = nullptr;
      bool overlapped = false;
      double best_overlap = 0.0;
      for (DecodedStream& have : result.streams) {
        const auto [hlo, hhi] = extent(have);
        const double shorter = std::min(chi - clo, hhi - hlo);
        if (shorter <= 0.0) continue;
        const double overlap =
            (std::min(chi, hhi) - std::max(clo, hlo)) / shorter;
        if (overlap <= 0.5) continue;
        overlapped = true;
        // Co-transmitting tags overlap in time too; the edge vector (the
        // tag's channel coefficient, polarity-tolerant) is the identity
        // key, exactly as in the window stitcher.
        const double direct = std::abs(cand.edge_vector - have.edge_vector);
        const double flipped = std::abs(cand.edge_vector + have.edge_vector);
        const double vscale = std::max(std::abs(have.edge_vector), 1e-12);
        if (std::min(direct, flipped) > 0.5 * vscale) continue;
        if (overlap > best_overlap) {
          best_overlap = overlap;
          match = &have;
        }
      }
      if (match == nullptr && overlapped) {
        // Overlaps live streams but matches none of their channel vectors:
        // most likely a re-decode of their unseparated mixture. Publishing
        // it would duplicate or fabricate — drop it.
        continue;
      }
      if (match == nullptr) {
        // A stream the primary pass never saw (e.g. edges below the nominal
        // threshold) — recovered outright, if the rigid parse agrees.
        if (!rigidly_valid(cand)) continue;
        result.streams.push_back(std::move(cand));
        ++result.diagnostics.fallback_recoveries;
        fb_recoveries.add();
      } else if (stream_valid_frames(cand) > stream_valid_frames(*match)) {
        *match = std::move(cand);
        ++result.diagnostics.fallback_recoveries;
        fb_recoveries.add();
      }
    }
  }
  std::sort(result.streams.begin(), result.streams.end(),
            [](const DecodedStream& a, const DecodedStream& b) {
              return a.start_sample < b.start_sample;
            });
  return result;
}

}  // namespace lfbs::core
