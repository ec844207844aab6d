#include "core/lf_decoder.h"

#include <algorithm>
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

/// A decoded stream before framing, kept with enough context for the
/// interference-cancellation pass.
struct PendingStream {
  std::size_t slots_ref = 0;   ///< index into the decode's slot store
  std::size_t start = 0;       ///< first slot of this stream's bit lattice
  std::size_t step = 1;        ///< slots per bit
  std::vector<bool> bits;
  Complex edge_vector;         ///< rising-edge IQ differential
  double snr_db = 0.0;         ///< edge power over boundary residual power
  bool collided = false;
  double start_sample = 0.0;
  BitRate rate = 0.0;
  // Soft-decision aggregates feeding DecodeConfidence.
  double edge_snr_db = 0.0;       ///< mean detected-edge SNR on the lattice
  double edge_confidence = 1.0;   ///< mean per-slot confidence
  double path_margin = 0.0;       ///< mean Viterbi margin (0 if stage off)
  double cluster_separation = 0.0;
  std::size_t erasures = 0;
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
  DecodeResult result;
  if (buffer.empty()) return result;
  Rng rng(cfg.seed);

  const double spb = samples_per_bit(buffer.sample_rate(), cfg.max_rate);
  // Grouping tolerances are physical times (edge ramp ~0.12 us, position
  // noise), not sample counts: the configured values are defined at the
  // paper's 25 Msps and scale with the ADC rate, so decoding works
  // identically at 2.5 and 25 Msps.
  const double fs_scale =
      cfg.auto_scale_edge ? buffer.sample_rate() / (25.0 * kMsps) : 1.0;
  const double group_tolerance =
      std::max(1.2, cfg.group_tolerance * fs_scale);
  const double merge_radius = std::max(2.0, cfg.merge_radius * fs_scale);

  // --- Stage 1: edge detection -------------------------------------------
  signal::EdgeDetectorConfig ec = cfg.edge;
  if (cfg.auto_scale_edge) {
    // Short detection windows: long ones smear neighbouring tags' edges
    // together. Boundary re-measurement below re-averages with windows
    // stretched to just short of the neighbouring edges, recovering SNR.
    ec.window = static_cast<std::size_t>(std::clamp(spb / 12.0, 2.0, 3.0));
    ec.guard = 1;
    // |dS| plateaus for about 2·guard + ramp samples around an edge; a
    // smaller separation would report one physical edge twice. Edges of
    // *different* tags closer than this merge into a single detection and
    // are handled as a collision — this is the system's collision radius,
    // and it should stay near the physical edge width (§2.4).
    ec.min_separation = std::max<std::size_t>(
        3, static_cast<std::size_t>(5.0 * fs_scale));
  }
  const signal::EdgeDetector edge_detector(ec);
  const std::vector<signal::Edge> edges = edge_detector.detect(buffer);
  result.diagnostics.edges = edges.size();
  if (edges.empty()) return result;

  // --- Stage 2: stream grouping ------------------------------------------
  StreamDetectorConfig sc;
  sc.lattice_period = spb;
  sc.base_tolerance = group_tolerance;
  sc.drift_tolerance_ppm = cfg.drift_tolerance_ppm;
  sc.min_edges = cfg.min_edges;
  sc.merge_radius = merge_radius;
  for (BitRate r : cfg.rate_plan.rates) {
    const double m = cfg.max_rate / r;
    if (std::abs(m - std::round(m)) < 1e-6) {
      sc.valid_steps.push_back(static_cast<std::int64_t>(std::llround(m)));
    }
  }
  const StreamDetector stream_detector(sc);
  const std::vector<StreamGroup> groups = stream_detector.detect(edges);
  result.diagnostics.groups = groups.size();
  span.attr("groups", static_cast<double>(groups.size()));

  const CollisionDetector collision_detector(cfg.collision);
  const CollisionSeparator separator(cfg.separator);
  const ErrorCorrector corrector(cfg.corrector);
  const double bguard = 4.0;

  // --- Stage 3: boundary differential extraction -------------------------
  // Extraction is reused by the over-merge fallback below, so it is keyed
  // on the group itself (its own edges span the measurement; all other
  // edges bound the averaging windows).
  const auto extract_slots = [&](const StreamGroup& group) {
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
      if (trail >= static_cast<double>(buffer.size()) - tail_margin) break;
      if (lead < tail_margin) continue;

      double before_gap = 1e9, after_gap = 1e9;
      const auto lo =
          std::lower_bound(foreign_positions.begin(), foreign_positions.end(),
                           lead - group_tolerance);
      if (lo != foreign_positions.begin()) before_gap = lead - *(lo - 1);
      const auto hi =
          std::upper_bound(foreign_positions.begin(), foreign_positions.end(),
                           trail + group_tolerance);
      if (hi != foreign_positions.end()) after_gap = *hi - trail;
      const double gb = std::clamp(before_gap / 3.0, 1.0, bguard);
      const double ga = std::clamp(after_gap / 3.0, 1.0, bguard);
      const auto wb = static_cast<std::size_t>(
          std::clamp(before_gap - gb - 1.0, 2.0, static_cast<double>(wmax)));
      const auto wa = static_cast<std::size_t>(
          std::clamp(after_gap - ga - 1.0, 2.0, static_cast<double>(wmax)));

      const Complex before = signal::windowed_mean_before(
          buffer.span(), static_cast<SampleIndex>(std::llround(lead - gb)),
          wb);
      const Complex after = signal::windowed_mean_after(
          buffer.span(), static_cast<SampleIndex>(std::llround(trail + ga)),
          wa);
      slots.positions.push_back(0.5 * (lead + trail));
      slots.diffs.push_back(after - before);
      slots.confidences.push_back(slot_conf);
      slots.snrs.push_back(slot_snr);
    }
    return slots;
  };

  std::vector<BoundarySlots> all_slots(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    all_slots[gi] = extract_slots(groups[gi]);
  }

  // --- Stage 4+5: per-group decode ----------------------------------------
  // Decodes one boundary-slot set as a single stream. `lattice_step` is
  // the owning group's bit-period step (sets the reported rate).
  const auto decode_slots_single = [&](std::size_t slots_ref,
                                       const BoundarySlots& slots,
                                       std::int64_t lattice_step,
                                       std::span<const Complex> diffs,
                                       Rng& krng) -> PendingStream {
    PendingStream ps;
    ps.slots_ref = slots_ref;
    ps.start = 0;
    ps.step = 1;
    ps.start_sample = slots.positions.front();
    ps.rate = cfg.max_rate / static_cast<double>(lattice_step);
    ps.edge_snr_db = slots.mean_snr(0, 1);
    ps.edge_confidence = slots.mean_confidence(0, 1);
    if (diffs.size() >= 3) {
      const dsp::KMeansResult fit =
          dsp::kmeans(diffs, 3, krng, cfg.collision.kmeans);
      const ThreeClusterLabels labels = label_three_clusters(diffs, fit);
      ps.edge_vector = 0.5 * (labels.rising - labels.falling);
      double residual2 = 0.0;
      for (std::size_t k = 0; k < diffs.size(); ++k) {
        const Complex expected = labels.states[k] == 1    ? labels.rising
                                 : labels.states[k] == -1 ? labels.falling
                                                          : labels.constant;
        residual2 += std::norm(diffs[k] - expected);
      }
      residual2 /= static_cast<double>(diffs.size());
      ps.snr_db =
          linear_to_db(std::norm(ps.edge_vector) / std::max(residual2, 1e-18));
      // Cluster separation: the closest centroid pair over the intra-cluster
      // scatter — how unambiguous the rising/falling/constant decision was.
      double min_dist2 = 1e300;
      for (std::size_t a = 0; a < fit.centroids.size(); ++a) {
        for (std::size_t b = a + 1; b < fit.centroids.size(); ++b) {
          min_dist2 =
              std::min(min_dist2, std::norm(fit.centroids[a] - fit.centroids[b]));
        }
      }
      ps.cluster_separation =
          std::sqrt(min_dist2 / std::max(residual2, 1e-18));
      if (cfg.error_correction) {
        const ErrorCorrector::SoftResult soft =
            corrector.correct_soft(diffs, labels, slots.confidences);
        ps.bits = soft.bits;
        ps.erasures = soft.erasures;
        double margin_sum = 0.0;
        for (double m : soft.bit_margins) margin_sum += m;
        ps.path_margin =
            soft.bit_margins.empty()
                ? 0.0
                : margin_sum / static_cast<double>(soft.bit_margins.size());
      } else {
        ps.bits = integrate_states(labels.states);
      }
    } else {
      const std::vector<EdgeState> states = classify_simple(diffs);
      ps.edge_vector = diffs.front();
      ps.bits = integrate_states(states);
    }
    return ps;
  };
  const auto decode_single = [&](std::size_t gi,
                                 std::span<const Complex> diffs,
                                 Rng& krng) -> PendingStream {
    return decode_slots_single(gi, all_slots[gi], groups[gi].step, diffs,
                               krng);
  };

  // Over-merge fallback: when a "collision" group resists separation, its
  // member edges may really belong to two distinct tags whose lattice
  // phases were close enough to fuse. If the positional residuals against
  // the joint fit are bimodal, split the group at the widest residual gap
  // and decode the halves as their own streams.
  const auto try_residual_split =
      [&](const StreamGroup& group)
      -> std::optional<std::pair<StreamGroup, StreamGroup>> {
    if (group.edge_indices.size() < 2 * sc.min_edges) return std::nullopt;
    struct Member {
      double residual;
      std::size_t k;
    };
    std::vector<Member> members;
    members.reserve(group.edge_indices.size());
    for (std::size_t k = 0; k < group.edge_indices.size(); ++k) {
      const double pos =
          static_cast<double>(edges[group.edge_indices[k]].position);
      members.push_back(
          {pos - group.position_of(group.lattice_indices[k]), k});
    }
    std::sort(members.begin(), members.end(),
              [](const Member& a, const Member& b) {
                return a.residual < b.residual;
              });
    // Widest gap with enough members on both sides.
    double best_gap = 0.0;
    std::size_t split_at = 0;
    for (std::size_t i = sc.min_edges; i + sc.min_edges <= members.size();
         ++i) {
      const double gap = members[i].residual - members[i - 1].residual;
      if (gap > best_gap) {
        best_gap = gap;
        split_at = i;
      }
    }
    if (split_at == 0 || best_gap < 2.5) return std::nullopt;

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
    return std::make_pair(build(0, split_at),
                          build(split_at, members.size()));
  };

  std::vector<PendingStream> pending;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const StreamGroup& group = groups[gi];
    const BoundarySlots& slots = all_slots[gi];
    if (slots.diffs.empty()) continue;

    CollisionAssessment assess;
    if (cfg.collision_recovery) {
      assess = collision_detector.assess(slots.diffs, rng);
    } else {
      assess.colliders = 1;
    }

    if (assess.colliders == 1) {
      pending.push_back(decode_single(gi, slots.diffs, rng));
      continue;
    }
    // Candidate component sub-steps, in joint-boundary units (shared by the
    // two- and three-way paths below).
    std::vector<std::size_t> allowed;
    for (std::int64_t m : sc.valid_steps) {
      if (m % group.step == 0) {
        allowed.push_back(static_cast<std::size_t>(m / group.step));
      }
    }
    const auto lattice_of = [](const std::vector<EdgeState>& states) {
      std::vector<std::size_t> nonzero;
      for (std::size_t i = 0; i < states.size(); ++i) {
        if (states[i] != 0) nonzero.push_back(i);
      }
      return nonzero;
    };
    const auto make_pending = [&](std::vector<bool> bits, std::size_t start,
                                  std::size_t step, Complex evec,
                                  double sigma, double margin = 0.0) {
      PendingStream ps;
      ps.slots_ref = gi;
      ps.collided = true;
      ps.start = start;
      ps.step = step;
      ps.start_sample = slots.positions[start];
      ps.rate = cfg.max_rate / static_cast<double>(group.step * step);
      ps.bits = std::move(bits);
      ps.edge_vector = evec;
      ps.snr_db = linear_to_db(std::norm(evec) /
                               std::max(2.0 * sigma * sigma, 1e-18));
      ps.edge_snr_db = slots.mean_snr(start, step);
      ps.edge_confidence = slots.mean_confidence(start, step);
      ps.path_margin = margin;
      pending.push_back(std::move(ps));
    };

    // Decodes a K-tag separation: anchor normalization, per-component bit
    // lattices from the hard states, the noise level, then the 2^K-state
    // joint Viterbi (or, with error correction off, each component's
    // integrated hard states). A two-tag separation first refines its edge
    // vectors and the residual receiver offset by least squares. Returns
    // false, decoding nothing, when a component never toggles.
    const auto decode_components = [&](const Separation& sep) {
      const std::size_t tags = sep.vectors.size();
      const std::size_t n = slots.diffs.size();
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
        const std::vector<std::size_t> nz = lattice_of(states[t]);
        if (nz.empty()) return false;
        std::tie(steps[t], starts[t]) =
            component_step(nz, n, allowed, sc.step_consensus);
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

      if (!cfg.error_correction) {
        for (std::size_t t = 0; t < tags; ++t) {
          make_pending(integrate_states(
                           subsample_states(states[t], starts[t], steps[t])),
                       starts[t], steps[t], evec[t], sigma);
        }
        return true;
      }
      std::vector<Complex> centered(slots.diffs.begin(), slots.diffs.end());
      for (Complex& z : centered) z -= offset;
      const ErrorCorrector::JointResult joint =
          corrector.correct_joint(centered, evec, toggles, sigma);
      for (std::size_t t = 0; t < tags; ++t) {
        std::vector<bool> bits;
        for (std::size_t k = starts[t]; k < n; k += steps[t]) {
          bits.push_back(joint.levels[t][k]);
        }
        make_pending(std::move(bits), starts[t], steps[t], evec[t], sigma,
                     joint.margin / static_cast<double>(n));
      }
      return true;
    };

    dsp::KMeansResult fit9 = std::move(assess.fit);
    if (assess.colliders >= 3) {
      // Three-way collisions are rare (P ≈ 0.018 at the paper's 16-node /
      // 100 kbps point). The paper defers them to the next epoch's fresh
      // random offsets (§3.2); as an extension we first attempt a full
      // 3-tag separation against the 27-cluster grid, decoded jointly, then
      // fall back to a two-tag separation of the strongest components, then
      // to deferral.
      if (cfg.error_correction) {
        const auto separation = separator.separate(slots.diffs, fit9);
        if (separation.has_value() && decode_components(*separation)) {
          ++result.diagnostics.collision_groups;
          continue;
        }
      }
      ++result.diagnostics.unresolved_groups;
      if (slots.diffs.size() < 9) continue;
      fit9 = dsp::kmeans(slots.diffs, 9, rng, cfg.collision.kmeans);
    }

    const auto separation = separator.separate(slots.diffs, fit9);
    if (!separation.has_value()) {
      if (const auto halves = try_residual_split(group)) {
        BoundarySlots a = extract_slots(halves->first);
        BoundarySlots b = extract_slots(halves->second);
        if (!a.diffs.empty() && !b.diffs.empty()) {
          // Keep the split halves' slot positions alive for the
          // cancellation pass.
          all_slots.push_back(std::move(a));
          const std::size_t ref_a = all_slots.size() - 1;
          all_slots.push_back(std::move(b));
          const std::size_t ref_b = all_slots.size() - 1;
          pending.push_back(decode_slots_single(
              ref_a, all_slots[ref_a], halves->first.step,
              all_slots[ref_a].diffs, rng));
          pending.back().collided = true;
          pending.push_back(decode_slots_single(
              ref_b, all_slots[ref_b], halves->second.step,
              all_slots[ref_b].diffs, rng));
          pending.back().collided = true;
          ++result.diagnostics.collision_groups;
          continue;
        }
      }
      ++result.diagnostics.unresolved_groups;
      pending.push_back(decode_single(gi, slots.diffs, rng));
      continue;
    }
    ++result.diagnostics.collision_groups;
    if (!decode_components(*separation)) {
      ++result.diagnostics.unresolved_groups;
      pending.push_back(decode_single(gi, slots.diffs, rng));
    }
  }

  // --- Stage 6: framing ----------------------------------------------------
  const auto finalize = [&](const PendingStream& ps) {
    DecodedStream stream;
    stream.start_sample = ps.start_sample;
    stream.rate = ps.rate;
    stream.collided = ps.collided;
    stream.edge_vector = ps.edge_vector;
    stream.snr_db = ps.snr_db;
    stream.confidence.edge_snr_db = ps.edge_snr_db;
    stream.confidence.edge_confidence = ps.edge_confidence;
    stream.confidence.path_margin = ps.path_margin;
    stream.confidence.cluster_separation = ps.cluster_separation;
    stream.confidence.erasures = ps.erasures;
    stream.bits = ps.bits;
    trim_trailing_zeros(stream.bits, cfg.frame.frame_bits());
    stream.frames = protocol::parse_stream(stream.bits, cfg.frame);
    // A missed or spurious edge can slip the bit stream and poison every
    // later frame of the rigid parse; re-scan with CRC resynchronization
    // and keep whichever recovers more frames.
    std::size_t ok = 0;
    for (const auto& f : stream.frames) {
      if (f.valid()) ++ok;
    }
    if (ok < stream.frames.size()) {
      auto rescued = protocol::scan_frames(stream.bits, cfg.frame);
      if (rescued.size() > ok) stream.frames = std::move(rescued);
    }
    return stream;
  };
  std::vector<DecodedStream> streams;
  streams.reserve(pending.size());
  for (const PendingStream& ps : pending) streams.push_back(finalize(ps));

  // --- Stage 7: transient-interference cancellation ------------------------
  // Two streams whose offsets drift *through* each other mid-epoch corrupt a
  // burst of boundaries (the foreign edge sits inside the measurement span
  // for tens of bits). For CRC-failed frames, subtract the decoded edge
  // contributions of CRC-valid frames of other streams at nearby boundary
  // positions and re-decode. Two rounds: streams repaired in round one can
  // donate their contributions in round two.
  if (cfg.collision_recovery && cfg.error_correction &&
      cfg.interference_cancellation) {
    const double zone = group_tolerance + 1.5;
    const std::size_t frame_bits = cfg.frame.frame_bits();
    for (int round = 0; round < 2; ++round) {
      struct Contribution {
        double position;
        Complex vector;
        std::size_t stream;
      };
      std::vector<Contribution> confident;
      for (std::size_t si = 0; si < streams.size(); ++si) {
        const PendingStream& ps = pending[si];
        const BoundarySlots& slots = all_slots[ps.slots_ref];
        // Contribute only boundaries inside CRC-valid frames: bits decoded
        // elsewhere are not trustworthy.
        for (std::size_t fi = 0; fi < streams[si].frames.size(); ++fi) {
          if (!streams[si].frames[fi].valid()) continue;
          const std::size_t bit_lo = fi * frame_bits;
          const std::size_t bit_hi =
              std::min(ps.bits.size(), (fi + 1) * frame_bits);
          bool prev = bit_lo == 0 ? false : ps.bits[bit_lo - 1];
          for (std::size_t j = bit_lo; j < bit_hi; ++j) {
            const std::size_t slot = ps.start + j * ps.step;
            if (slot >= slots.positions.size()) break;
            const int state =
                static_cast<int>(ps.bits[j]) - static_cast<int>(prev);
            prev = ps.bits[j];
            if (state != 0) {
              confident.push_back({slots.positions[slot],
                                   static_cast<double>(state) * ps.edge_vector,
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
        if (pending[si].collided) continue;  // jointly decoded already
        if (streams[si].frames.empty()) continue;
        if (stream_valid_frames(streams[si]) == streams[si].frames.size()) {
          continue;
        }
        const PendingStream& ps = pending[si];
        const BoundarySlots& slots = all_slots[ps.slots_ref];
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
        Rng krng(cfg.seed ^ (0x9e37ull + si + 131 * round));
        DecodedStream redone = finalize(decode_slots_single(
            ps.slots_ref, all_slots[ps.slots_ref],
            static_cast<std::int64_t>(
                std::llround(cfg.max_rate / ps.rate)),
            corrected, krng));
        if (stream_valid_frames(redone) > stream_valid_frames(streams[si])) {
          streams[si] = std::move(redone);
          any_repaired = true;
        }
      }
      if (!any_repaired) break;
    }
  }

  for (const DecodedStream& s : streams) {
    result.diagnostics.erasures += s.confidence.erasures;
  }
  result.streams = std::move(streams);
  return result;
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
