// Tests for src/protocol: CRCs, framing, rate plans, rate control, and
// identification sessions.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "obs/metrics.h"
#include "protocol/crc.h"
#include "protocol/epoch.h"
#include "protocol/frame.h"
#include "protocol/identification.h"
#include "protocol/rate_control.h"
#include "protocol/reliability.h"

namespace lfbs::protocol {
namespace {

TEST(Crc5, DetectsSingleBitErrors) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto payload = rng.bits(97);
    auto framed = append_crc5(payload);
    ASSERT_TRUE(check_crc5(framed));
    const std::size_t flip = rng.uniform_u64(framed.size());
    framed[flip] = !framed[flip];
    EXPECT_FALSE(check_crc5(framed)) << "missed flip at " << flip;
  }
}

TEST(Crc5, KnownRegisterBehaviour) {
  // All-zero input leaves the preset shifted through: deterministic value.
  const std::vector<bool> zeros(8, false);
  const auto a = crc5_epc(zeros);
  const auto b = crc5_epc(zeros);
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 32);  // 5 bits
  // Different inputs give different CRCs (almost surely for these two).
  std::vector<bool> ones(8, true);
  EXPECT_NE(crc5_epc(ones), a);
}

TEST(Crc16, DetectsBurstErrors) {
  Rng rng(2);
  const auto payload = rng.bits(97);
  auto framed = append_crc16(payload);
  ASSERT_TRUE(check_crc16(framed));
  // A 5-bit burst anywhere must be caught (CRC-16 guarantees bursts <= 16).
  for (std::size_t start = 0; start + 5 < framed.size(); start += 7) {
    auto corrupted = framed;
    for (std::size_t i = start; i < start + 5; ++i) {
      corrupted[i] = !corrupted[i];
    }
    EXPECT_FALSE(check_crc16(corrupted));
  }
}

TEST(Crc16, TooShortInputFails) {
  EXPECT_FALSE(check_crc16(std::vector<bool>(10, true)));
  EXPECT_FALSE(check_crc5(std::vector<bool>(3, true)));
}

TEST(Frame, RoundTrip) {
  Rng rng(3);
  const FrameConfig cfg;  // 96-bit payload, CRC-16
  const auto payload = rng.bits(cfg.payload_bits);
  const auto bits = build_frame(payload, cfg);
  EXPECT_EQ(bits.size(), cfg.frame_bits());
  EXPECT_TRUE(bits.front());  // anchor
  const ParsedFrame parsed = parse_frame(bits, cfg);
  EXPECT_TRUE(parsed.valid());
  EXPECT_EQ(parsed.payload, payload);
}

TEST(Frame, Crc5Variant) {
  Rng rng(4);
  FrameConfig cfg;
  cfg.crc = CrcKind::kCrc5;
  EXPECT_EQ(cfg.frame_bits(), 1u + 96u + 5u);
  const auto payload = rng.bits(96);
  const auto bits = build_frame(payload, cfg);
  EXPECT_TRUE(parse_frame(bits, cfg).valid());
}

TEST(Frame, CorruptionFlagsNotThrows) {
  Rng rng(5);
  const FrameConfig cfg;
  auto bits = build_frame(rng.bits(cfg.payload_bits), cfg);
  bits[0] = false;  // break the anchor
  const ParsedFrame no_anchor = parse_frame(bits, cfg);
  EXPECT_FALSE(no_anchor.anchor_ok);
  bits[0] = true;
  bits[50] = !bits[50];  // break the payload
  const ParsedFrame bad_crc = parse_frame(bits, cfg);
  EXPECT_TRUE(bad_crc.anchor_ok);
  EXPECT_FALSE(bad_crc.crc_ok);
}

TEST(Frame, WrongLengthIsInvalid) {
  const FrameConfig cfg;
  EXPECT_FALSE(parse_frame(std::vector<bool>(5, true), cfg).valid());
}

TEST(Frame, ParseStreamSplitsConsecutiveFrames) {
  Rng rng(6);
  const FrameConfig cfg;
  const auto p1 = rng.bits(cfg.payload_bits);
  const auto p2 = rng.bits(cfg.payload_bits);
  auto stream = build_frame(p1, cfg);
  const auto f2 = build_frame(p2, cfg);
  stream.insert(stream.end(), f2.begin(), f2.end());
  stream.push_back(true);  // trailing partial garbage
  const auto frames = parse_stream(stream, cfg);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, p1);
  EXPECT_EQ(frames[1].payload, p2);
  EXPECT_TRUE(frames[0].valid() && frames[1].valid());
}

/// CRC check as it read before the shared range routine: recompute the
/// register over the message and compare it with the trailing bits.
bool check_by_tail_compare(const std::vector<bool>& bits, const CrcSpec& spec) {
  if (bits.size() < spec.width) return false;
  const std::vector<bool> message(bits.begin(), bits.end() - spec.width);
  const std::uint32_t expected =
      crc_bits(message.begin(), message.end(), spec);
  std::uint32_t got = 0;
  for (std::size_t i = bits.size() - spec.width; i < bits.size(); ++i) {
    got = (got << 1) | (bits[i] ? 1u : 0u);
  }
  return got == expected;
}

TEST(Crc, ResidueCheckMatchesTailCompare) {
  Rng rng(17);
  for (const CrcSpec& spec : {kCrc5Epc, kCrc16Ccitt}) {
    for (std::size_t len = 0; len < 48; ++len) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<bool> bits = rng.bits(len);
        // Half the trials carry a valid CRC, some with one bit flipped.
        if (trial % 2 == 0 && len >= spec.width) {
          bits.resize(len - spec.width);
          bits = spec.width == 5 ? append_crc5(bits) : append_crc16(bits);
          if (trial % 4 == 0) {
            const auto flip = rng.uniform_u64(len);
            bits[flip] = !bits[flip];
          }
        }
        const bool want = check_by_tail_compare(bits, spec);
        EXPECT_EQ(spec.width == 5 ? check_crc5(bits) : check_crc16(bits), want)
            << "width=" << spec.width << " len=" << len;
        EXPECT_EQ(crc_matches(bits, spec), want);
      }
    }
  }
}

TEST(Crc, SlidingRegisterMatchesFullRecomputeAtEveryOffset) {
  Rng rng(20);
  for (const CrcSpec& spec : {kCrc5Epc, kCrc16Ccitt}) {
    for (const std::size_t len : {1u, 5u, 16u, 17u, 102u, 113u}) {
      const std::vector<bool> bits = rng.bits(400);
      const SlidingCrc sliding(spec, len);
      std::uint32_t reg = crc_bits(bits.begin(), bits.begin() + len, spec);
      for (std::size_t b = 0; b + len <= bits.size(); ++b) {
        const auto first = bits.begin() + static_cast<std::ptrdiff_t>(b);
        ASSERT_EQ(reg, crc_bits(first, first + len, spec))
            << "width=" << spec.width << " len=" << len << " offset=" << b;
        if (b + len < bits.size()) reg = sliding.slide(reg, bits[b], bits[b + len]);
      }
    }
  }
}

/// The scanner as it ran before the sliding CRC: slice a frame at every
/// anchor-set offset and hand it to parse_frame.
std::vector<ParsedFrame> scan_by_parse_frame(const std::vector<bool>& bits,
                                             const FrameConfig& config) {
  std::vector<ParsedFrame> frames;
  const std::size_t len = config.frame_bits();
  std::size_t begin = 0;
  while (begin + len <= bits.size()) {
    if (!bits[begin]) {
      ++begin;
      continue;
    }
    const std::vector<bool> chunk(
        bits.begin() + static_cast<std::ptrdiff_t>(begin),
        bits.begin() + static_cast<std::ptrdiff_t>(begin + len));
    ParsedFrame parsed = parse_frame(chunk, config);
    if (parsed.valid()) {
      frames.push_back(std::move(parsed));
      begin += len;
    } else {
      ++begin;
    }
  }
  return frames;
}

struct CounterDeltas {
  std::uint64_t parsed = 0;
  std::uint64_t crc_failed = 0;
};

template <typename Scan>
CounterDeltas count_while(Scan&& scan) {
  obs::Counter& parsed = obs::metrics().counter("protocol.frames_parsed");
  obs::Counter& failed = obs::metrics().counter("protocol.frames_crc_failed");
  const std::uint64_t p0 = parsed.value();
  const std::uint64_t f0 = failed.value();
  scan();
  return {parsed.value() - p0, failed.value() - f0};
}

/// Frames back to back with random slips (a dropped or an extra bit), the
/// odd corrupted frame, garbage in front, and the last frame ending exactly
/// at the last bit.
std::vector<bool> slipped_stream(const FrameConfig& cfg, std::size_t frames,
                                 Rng& rng) {
  std::vector<bool> bits = rng.bits(rng.uniform_u64(40));
  for (std::size_t f = 0; f < frames; ++f) {
    auto frame = build_frame(rng.bits(cfg.payload_bits), cfg);
    if (rng.bernoulli(0.15)) {
      const auto flip = rng.uniform_u64(frame.size());
      frame[flip] = !frame[flip];
    }
    if (f + 1 < frames) {
      if (rng.bernoulli(0.2)) frame.pop_back();
      if (rng.bernoulli(0.2)) frame.push_back(rng.bernoulli(0.5));
    }
    bits.insert(bits.end(), frame.begin(), frame.end());
  }
  return bits;
}

TEST(ScanFrames, MatchesPerOffsetParseFrameReference) {
  Rng rng(18);
  for (const CrcKind crc : {CrcKind::kCrc5, CrcKind::kCrc16}) {
    // Short payloads make CRC false positives (and so the greedy skip
    // after a hit) common; 96 bits is the on-air size.
    for (const std::size_t payload_bits : {4u, 12u, 96u}) {
      const FrameConfig cfg{.payload_bits = payload_bits, .crc = crc};
      for (int trial = 0; trial < 12; ++trial) {
        const std::vector<bool> bits =
            trial == 0 ? std::vector<bool>{}
                       : slipped_stream(cfg, rng.uniform_u64(30), rng);
        std::vector<ParsedFrame> got, want;
        const CounterDeltas got_counts =
            count_while([&] { got = scan_frames(bits, cfg); });
        const CounterDeltas want_counts =
            count_while([&] { want = scan_by_parse_frame(bits, cfg); });
        const std::string where = "crc=" + std::to_string(cfg.crc_bits()) +
                                  " payload=" + std::to_string(payload_bits) +
                                  " trial=" + std::to_string(trial);
        EXPECT_EQ(got_counts.parsed, want_counts.parsed) << where;
        EXPECT_EQ(got_counts.crc_failed, want_counts.crc_failed) << where;
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].payload, want[i].payload) << where << " frame " << i;
          EXPECT_EQ(got[i].anchor_ok, want[i].anchor_ok) << where;
          EXPECT_EQ(got[i].crc_ok, want[i].crc_ok) << where;
        }
      }
    }
  }
}

TEST(ScanFrames, FrameEndingAtTheLastBitIsFound) {
  Rng rng(19);
  for (const CrcKind crc : {CrcKind::kCrc5, CrcKind::kCrc16}) {
    const FrameConfig cfg{.payload_bits = 96, .crc = crc};
    const auto payload = rng.bits(cfg.payload_bits);
    std::vector<bool> bits(7, false);
    const auto frame = build_frame(payload, cfg);
    bits.insert(bits.end(), frame.begin(), frame.end());
    const auto frames = scan_frames(bits, cfg);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].payload, payload);
    EXPECT_TRUE(frames[0].valid());
    bits.pop_back();  // one bit short: nothing fits
    EXPECT_TRUE(scan_frames(bits, cfg).empty());
  }
}

TEST(RatePlan, PaperRatesAllDivideMax) {
  const RatePlan plan = RatePlan::paper_rates();
  const BitRate max = plan.max();
  EXPECT_DOUBLE_EQ(max, 100.0 * kKbps);
  EXPECT_DOUBLE_EQ(plan.min(), 0.5 * kKbps);
  for (BitRate r : plan.rates) {
    const double m = max / r;
    EXPECT_NEAR(m, std::round(m), 1e-9) << r;
  }
}

TEST(RatePlan, SnapPeriodPicksNearestRate) {
  const RatePlan plan = RatePlan::paper_rates();
  EXPECT_DOUBLE_EQ(plan.snap_period(1.0 / (100.0 * kKbps)), 100.0 * kKbps);
  EXPECT_DOUBLE_EQ(plan.snap_period(1.05e-4), 10.0 * kKbps);
  EXPECT_DOUBLE_EQ(plan.snap_period(1.0), 0.5 * kKbps);  // slower than all
}

TEST(RatePlan, ValidityTolerance) {
  const RatePlan plan = RatePlan::paper_rates();
  EXPECT_TRUE(plan.is_valid(100.0 * kKbps));
  EXPECT_TRUE(plan.is_valid(100.0 * kKbps * (1.0 + 1e-9)));
  EXPECT_FALSE(plan.is_valid(30.0 * kKbps));
}

TEST(RateController, LowersOnHeavyLoss) {
  RateController rc(RatePlan::paper_rates(), 100.0 * kKbps);
  const auto cmd = rc.on_epoch(100, 60);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd, 50.0 * kKbps);
  EXPECT_DOUBLE_EQ(rc.current_max(), 50.0 * kKbps);
}

TEST(RateController, RaisesAfterPatienceCleanEpochs) {
  RateController rc(RatePlan::paper_rates(), 50.0 * kKbps);
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  const auto cmd = rc.on_epoch(100, 0);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd, 100.0 * kKbps);
}

TEST(RateController, ModerateLossHoldsSteady) {
  RateController rc(RatePlan::paper_rates(), 50.0 * kKbps);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rc.on_epoch(100, 10).has_value());
  }
  EXPECT_DOUBLE_EQ(rc.current_max(), 50.0 * kKbps);
}

TEST(RateController, NeverLeavesThePlan) {
  RateController rc(RatePlan::paper_rates(), 0.5 * kKbps);
  EXPECT_FALSE(rc.on_epoch(10, 10).has_value());  // already at the floor
  EXPECT_DOUBLE_EQ(rc.current_max(), 0.5 * kKbps);
}

TEST(RateController, StepDownLowersOneNotchAndStopsAtFloor) {
  RateController rc(RatePlan::paper_rates(), 100.0 * kKbps);
  const auto cmd = rc.step_down();
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd, 50.0 * kKbps);
  EXPECT_DOUBLE_EQ(rc.current_max(), 50.0 * kKbps);
  // Walk all the way down; at the slowest rate step_down is a no-op.
  while (rc.step_down().has_value()) {
  }
  EXPECT_DOUBLE_EQ(rc.current_max(), 0.5 * kKbps);
  EXPECT_FALSE(rc.step_down().has_value());
}

TEST(RateController, StepDownResetsRaisePatience) {
  RateController rc(RatePlan::paper_rates(), 50.0 * kKbps);
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  // One clean epoch short of raising; a step_down must restart the count
  // (from the new, lower rate).
  ASSERT_TRUE(rc.step_down().has_value());
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  const auto raise = rc.on_epoch(100, 0);
  ASSERT_TRUE(raise.has_value());
  EXPECT_DOUBLE_EQ(*raise, 50.0 * kKbps);
}

TEST(Identification, RandomEpcsAreUniqueAnd96Bits) {
  Rng rng(7);
  const auto ids = random_epcs(32, rng);
  EXPECT_EQ(ids.size(), 32u);
  for (const auto& id : ids) EXPECT_EQ(id.size(), 96u);
}

TEST(Identification, SessionTracksProgress) {
  Rng rng(8);
  const auto ids = random_epcs(4, rng);
  IdentificationSession session(ids);
  EXPECT_FALSE(session.complete());
  session.record_round({ids[0], ids[1], ids[0]}, 1e-3);
  EXPECT_EQ(session.identified_count(), 2u);
  session.record_round({ids[2], ids[3]}, 1e-3);
  EXPECT_TRUE(session.complete());
  EXPECT_NEAR(session.elapsed(), 2e-3, 1e-12);
  EXPECT_EQ(session.rounds(), 2u);
}

TEST(Identification, PhantomIdsIgnored) {
  Rng rng(9);
  const auto ids = random_epcs(2, rng);
  IdentificationSession session(ids);
  session.record_round({rng.bits(96)}, 1e-3);  // garbage decode
  EXPECT_EQ(session.identified_count(), 0u);
}

TEST(ReliableTransfer, DeliversOnConfirmation) {
  Rng rng(10);
  ReliableTransfer link(2);
  const auto p0 = rng.bits(96);
  const auto p1 = rng.bits(96);
  link.enqueue(0, p0);
  link.enqueue(1, p1);
  EXPECT_EQ(link.pending(), 2u);
  const auto on_air = link.epoch_payloads(1);
  ASSERT_EQ(on_air.size(), 2u);
  EXPECT_EQ(on_air[0][0], p0);
  EXPECT_EQ(link.on_epoch_decoded({p0}), 1u);
  EXPECT_EQ(link.pending(), 1u);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(ReliableTransfer, RetransmitsUntilConfirmed) {
  Rng rng(11);
  ReliableTransfer link(1);
  const auto p = rng.bits(96);
  link.enqueue(0, p);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto on_air = link.epoch_payloads(1);
    ASSERT_EQ(on_air[0].size(), 1u);   // still offered
    link.on_epoch_decoded({});         // lost
  }
  link.epoch_payloads(1);
  link.on_epoch_decoded({p});
  EXPECT_EQ(link.delivered(), 1u);
  // Latency histogram records the 4th attempt.
  ASSERT_GE(link.latency_histogram().size(), 5u);
  EXPECT_EQ(link.latency_histogram()[4], 1u);
}

TEST(ReliableTransfer, AbandonsAfterMaxAttempts) {
  Rng rng(12);
  ReliableTransfer::Config cfg;
  cfg.max_attempts = 2;
  ReliableTransfer link(1, cfg);
  link.enqueue(0, rng.bits(96));
  link.epoch_payloads(1);
  link.on_epoch_decoded({});
  EXPECT_EQ(link.pending(), 1u);
  link.epoch_payloads(1);
  link.on_epoch_decoded({});
  EXPECT_EQ(link.pending(), 0u);
  EXPECT_EQ(link.abandoned(), 1u);
}

TEST(ReliableTransfer, OnlyInFlightFramesAge) {
  Rng rng(13);
  ReliableTransfer::Config cfg;
  cfg.max_attempts = 1;
  ReliableTransfer link(1, cfg);
  link.enqueue(0, rng.bits(96));
  link.enqueue(0, rng.bits(96));
  link.epoch_payloads(1);  // only the head frame goes on the air
  link.on_epoch_decoded({});
  // Head frame abandoned (1 attempt allowed); queued frame untouched.
  EXPECT_EQ(link.abandoned(), 1u);
  EXPECT_EQ(link.pending(), 1u);
}

TEST(ReliableTransfer, RetryForeverDoesNotStarveFreshFrames) {
  // Regression: with max_attempts = 0 and head-of-line selection, one
  // payload the reader can never decode occupied the single transmit slot
  // every epoch and the frames behind it never aired — pending() stayed
  // flat forever. Fewest-attempts-first selection must keep the queue
  // draining around the stuck frame.
  Rng rng(14);
  ReliableTransfer::Config cfg;
  cfg.max_attempts = 0;  // retry forever
  cfg.stuck_threshold = 4;
  ReliableTransfer link(1, cfg);
  const auto poison = rng.bits(96);  // reader never confirms this one
  link.enqueue(0, poison);
  const std::vector<std::vector<bool>> fresh = {rng.bits(96), rng.bits(96),
                                                rng.bits(96)};
  for (const auto& p : fresh) link.enqueue(0, p);

  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto on_air = link.epoch_payloads(1);
    ASSERT_EQ(on_air[0].size(), 1u);
    // The reader decodes everything except the poison payload.
    if (on_air[0][0] != poison) {
      link.on_epoch_decoded({on_air[0][0]});
    } else {
      link.on_epoch_decoded({});
    }
  }
  // All fresh frames delivered despite the undecodable one retrying
  // forever; the poison frame is still pending, never abandoned.
  EXPECT_EQ(link.delivered(), fresh.size());
  EXPECT_EQ(link.pending(), 1u);
  EXPECT_EQ(link.abandoned(), 0u);
  // With 10 epochs and 3 delivered, the poison frame failed 7 times —
  // visible in the stuck-frame stats.
  EXPECT_EQ(link.max_attempts_pending(), 7u);
  EXPECT_EQ(link.stuck(), 1u);
}

TEST(ReliableTransfer, DuplicatePayloadsAcrossTags) {
  ReliableTransfer link(2);
  const std::vector<bool> same(96, true);
  link.enqueue(0, same);
  link.enqueue(1, same);
  link.epoch_payloads(1);
  // One confirmation delivers exactly one of the two copies.
  EXPECT_EQ(link.on_epoch_decoded({same}), 1u);
  EXPECT_EQ(link.pending(), 1u);
}

}  // namespace
}  // namespace lfbs::protocol
