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
#include <gtest/gtest.h>

#include <cstdint>

#include "core/lf_decoder.h"
#include "sim/scenario.h"

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

/// One 16-tag epoch drawn from `seed`, exactly as perfbench's epoch16
/// workload draws its epochs.
core::DecodeResult decode_epoch(std::uint64_t seed) {
  Rng rng(seed);
  sim::ScenarioConfig sc;
  sc.num_tags = 16;
  sim::Scenario scenario(sc, rng);
  std::vector<std::vector<std::vector<bool>>> payloads(scenario.num_tags());
  for (auto& per_tag : payloads) {
    per_tag.push_back(rng.bits(sc.frame.payload_bits));
  }
  const signal::SampleBuffer samples = scenario.capture_epoch(payloads, rng);
  return core::LfDecoder(scenario.default_decoder()).decode(samples);
}

struct Golden {
  std::uint64_t seed;
  std::uint64_t digest;
  core::DecodeDiagnostics diagnostics;
};

TEST(GoldenDecode, SixteenTagEpochsMatchTheirDigests) {
  // {edges, groups, collision_groups, unresolved_groups, erasures,
  //  fallback_passes, fallback_recoveries}
  const Golden kGolden[] = {
      {30, 0xc55c28f69c33a001ull, {793, 12, 3, 1, 0, 0, 0}},
      {38, 0xa0aa55485a48c3deull, {792, 13, 3, 4, 0, 0, 0}},
      {56, 0x4ba3e4a725b2c147ull, {803, 12, 5, 1, 0, 0, 0}},
      {103, 0xf5498ad07ac8ffe5ull, {815, 11, 4, 3, 0, 0, 0}},
      {115, 0x3ee0b9242b2bd801ull, {904, 14, 1, 2, 0, 0, 0}},
  };
  for (const Golden& g : kGolden) {
    const core::DecodeResult r = decode_epoch(g.seed);
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
}

}  // namespace
}  // namespace lfbs
