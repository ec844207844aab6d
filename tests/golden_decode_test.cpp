// Golden digests of the collision decode paths: seeded 16-tag Fig 8 epochs
// (25 Msps, 100 kbps, one 96-bit frame per tag) decoded by LfDecoder. Each
// epoch pins an FNV-1a digest of the discrete outputs only — stream bits,
// frame anchor/CRC verdicts and the fallback stage — plus every
// DecodeDiagnostics count. No floats enter the digest, so it holds at any
// optimization level; a change that moves any decoded bit fails here even
// when it moves serial and streaming decode the same way.
//
// The seeds cover the collision ladder: seeds 30 and 103 resolve a 3-way
// group through the 27-cluster grid separation and the 8-state joint
// Viterbi; seeds 30, 38, 56 and 103 resolve 2-way groups through the
// least-squares refit and the 4-state joint Viterbi; seed 38 fails a 3-way
// separation and falls to the 9-cluster refit; seeds 38, 56 and 115 split
// an over-merged group at its residual gap.
//
// Three more epochs pin the paths those seeds do not reach: a long epoch
// (4.8 ms, four frames per tag, the ablation bench's second operating
// point) where transient-interference cancellation repairs a stream; seed
// 56 decoded with error_correction off, whose two-way separations take the
// K-way hard-decision path (each component's integrated states); and seed
// 30 decoded with collision_recovery off (the Fig 9 "Edge" mode).
//
// One few-tag capture pins the fallback ladder: a single tag at 7 dB SNR
// that no primary pass decodes, which only the serial windowed decoder's
// whole-capture rescue recovers.
#include <gtest/gtest.h>

#include <cstdint>

#include "channel/channel_model.h"
#include "channel/noise.h"
#include "core/lf_decoder.h"
#include "core/windowed_decoder.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "sim/scenario.h"
#include "tag/tag.h"

namespace lfbs {
namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t digest_of(const core::DecodeResult& result) {
  Fnv fnv;
  fnv.add(result.streams.size());
  for (const core::DecodedStream& stream : result.streams) {
    fnv.add(stream.bits.size());
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < stream.bits.size(); ++i) {
      word = (word << 1) | (stream.bits[i] ? 1u : 0u);
      if (i % 64 == 63) fnv.add(word), word = 0;
    }
    fnv.add(word);
    fnv.add(stream.frames.size());
    for (const protocol::ParsedFrame& frame : stream.frames) {
      fnv.add((frame.anchor_ok ? 1u : 0u) | (frame.crc_ok ? 2u : 0u));
    }
    fnv.add(static_cast<std::uint64_t>(stream.confidence.stage));
  }
  return fnv.value();
}

/// How a golden epoch departs from perfbench's epoch16 draw.
struct Variant {
  Seconds epoch = 1.5e-3;
  std::size_t frames_per_tag = 1;
  bool error_correction = true;
  bool collision_recovery = true;
  bool interference_cancellation = true;
};

/// One 16-tag epoch drawn from `seed`, exactly as perfbench's epoch16
/// workload draws its epochs when `variant` is the default.
core::DecodeResult decode_epoch(std::uint64_t seed,
                                const Variant& variant = {}) {
  Rng rng(seed);
  sim::ScenarioConfig sc;
  sc.num_tags = 16;
  sc.epoch_duration = variant.epoch;
  sim::Scenario scenario(sc, rng);
  std::vector<std::vector<std::vector<bool>>> payloads(scenario.num_tags());
  for (auto& per_tag : payloads) {
    for (std::size_t f = 0; f < variant.frames_per_tag; ++f) {
      per_tag.push_back(rng.bits(sc.frame.payload_bits));
    }
  }
  const signal::SampleBuffer samples = scenario.capture_epoch(payloads, rng);
  core::DecoderConfig cfg = scenario.default_decoder();
  cfg.error_correction = variant.error_correction;
  cfg.collision_recovery = variant.collision_recovery;
  cfg.interference_cancellation = variant.interference_cancellation;
  return core::LfDecoder(cfg).decode(samples);
}

struct Golden {
  std::uint64_t seed;
  std::uint64_t digest;
  core::DecodeDiagnostics diagnostics;
};

void expect_golden(const core::DecodeResult& r, const Golden& g) {
  const core::DecodeDiagnostics& d = r.diagnostics;
  EXPECT_EQ(digest_of(r), g.digest) << "seed " << g.seed;
  EXPECT_EQ(d.edges, g.diagnostics.edges) << "seed " << g.seed;
  EXPECT_EQ(d.groups, g.diagnostics.groups) << "seed " << g.seed;
  EXPECT_EQ(d.collision_groups, g.diagnostics.collision_groups)
      << "seed " << g.seed;
  EXPECT_EQ(d.unresolved_groups, g.diagnostics.unresolved_groups)
      << "seed " << g.seed;
  EXPECT_EQ(d.erasures, g.diagnostics.erasures) << "seed " << g.seed;
  EXPECT_EQ(d.fallback_passes, g.diagnostics.fallback_passes)
      << "seed " << g.seed;
  EXPECT_EQ(d.fallback_recoveries, g.diagnostics.fallback_recoveries)
      << "seed " << g.seed;
}

// Diagnostics below read
// {edges, groups, collision_groups, unresolved_groups, erasures,
//  fallback_passes, fallback_recoveries}.

TEST(GoldenDecode, SixteenTagEpochsMatchTheirDigests) {
  const Golden kGolden[] = {
      {30, 0xc55c28f69c33a001ull, {793, 12, 3, 1, 0, 0, 0}},
      {38, 0xa0aa55485a48c3deull, {792, 13, 3, 4, 0, 0, 0}},
      {56, 0x4ba3e4a725b2c147ull, {803, 12, 5, 1, 0, 0, 0}},
      {103, 0xf5498ad07ac8ffe5ull, {815, 11, 4, 3, 0, 0, 0}},
      {115, 0x3ee0b9242b2bd801ull, {904, 14, 1, 2, 0, 0, 0}},
  };
  for (const Golden& g : kGolden) expect_golden(decode_epoch(g.seed), g);
}

TEST(GoldenDecode, LongEpochInterferenceCancellationRepairsAStream) {
  const Variant kLong{.epoch = 4.8e-3, .frames_per_tag = 4};
  const core::DecodeResult r = decode_epoch(9, kLong);
  expect_golden(r, {9, 0xb2da67a91cae00c9ull, {2900, 10, 4, 6, 0, 0, 0}});
  // The repair is what the digest pins: without the cancellation stage the
  // same epoch recovers fewer frames.
  Variant without = kLong;
  without.interference_cancellation = false;
  EXPECT_GT(r.valid_payloads().size(),
            decode_epoch(9, without).valid_payloads().size());
}

TEST(GoldenDecode, HardDecisionKWayComponentsMatchTheirDigest) {
  expect_golden(decode_epoch(56, {.error_correction = false}),
                {56, 0x0374e936ab2748f1ull, {803, 12, 5, 1, 0, 0, 0}});
}

TEST(GoldenDecode, EdgeOnlyDecodeMatchesItsDigest) {
  expect_golden(decode_epoch(30, {.collision_recovery = false}),
                {30, 0x27b0c76a463be065ull, {793, 12, 0, 0, 0, 0, 0}});
}

/// One tag at 5 Msps streaming `frames` frames at `snr_db`, the
/// fallback-ladder capture of the window pipeline tests.
signal::SampleBuffer low_snr_capture(std::uint64_t seed, double snr_db,
                                     int frames) {
  Rng rng(seed);
  const Complex h{0.08, 0.06};
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = channel::noise_power_for_snr(std::norm(h), snr_db);
  channel::ChannelModel ch;
  ch.add_tag(h);
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  std::vector<std::vector<bool>> bits;
  for (int f = 0; f < frames; ++f) {
    bits.push_back(protocol::build_frame(rng.bits(fc.payload_bits), fc));
  }
  tag::TagConfig tc;
  tag::Tag tag(tc, rng);
  const Seconds duration = frames * 113.0 / tc.rate + 1e-3;
  const std::vector<signal::StateTimeline> timelines{
      tag.transmit_epoch(bits, duration, rng).timeline};
  return receiver.receive_epoch(timelines, duration, rng);
}

TEST(GoldenDecode, LowSnrCaptureOnlyTheFallbackLadderRescues) {
  const core::DecodeResult r = core::WindowedDecoder({}).decode(
      low_snr_capture(77, 7.0, 40));
  const core::DecodeDiagnostics& d = r.diagnostics;
  EXPECT_EQ(digest_of(r), 0x11e4211603a5192full);
  EXPECT_GT(d.fallback_passes, 0u);
  EXPECT_FALSE(r.valid_payloads().empty());
  bool rescued = false;
  for (const core::DecodedStream& stream : r.streams) {
    rescued |= stream.confidence.stage != core::FallbackStage::kPrimary;
  }
  EXPECT_TRUE(rescued);
  // {edges, groups, collision_groups, unresolved_groups, erasures,
  //  fallback_passes, fallback_recoveries}
  const core::DecodeDiagnostics kCounts{289, 1, 0, 0, 0, 4, 1};
  EXPECT_EQ(d.edges, kCounts.edges);
  EXPECT_EQ(d.groups, kCounts.groups);
  EXPECT_EQ(d.collision_groups, kCounts.collision_groups);
  EXPECT_EQ(d.unresolved_groups, kCounts.unresolved_groups);
  EXPECT_EQ(d.erasures, kCounts.erasures);
  EXPECT_EQ(d.fallback_passes, kCounts.fallback_passes);
  EXPECT_EQ(d.fallback_recoveries, kCounts.fallback_recoveries);
}

}  // namespace
}  // namespace lfbs
