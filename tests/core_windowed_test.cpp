// Tests for the windowed (streaming) decoder: the window lattice, cross-
// window stitching, polarity resolution, gap filling — and the
// resynchronizing frame scanner it relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "channel/channel_model.h"
#include "core/windowed_decoder.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "tag/tag.h"

namespace lfbs::core {
namespace {

struct LongCapture {
  signal::SampleBuffer buffer{1e6, std::size_t{0}};
  std::vector<std::vector<bool>> payloads;
};

/// A multi-window capture: `tags` tags stream frames for `duration`.
LongCapture make_capture(std::size_t num_tags, Seconds duration,
                         double drift_ppm, std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  protocol::FrameConfig fc;
  for (std::size_t i = 0; i < num_tags; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.clock.drift_ppm = drift_ppm;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  LongCapture cap;
  std::vector<signal::StateTimeline> timelines;
  for (auto& t : tags) {
    std::vector<std::vector<bool>> frames;
    const auto n = static_cast<std::size_t>((duration - 1e-3) *
                                            (100.0 * kKbps) / 113.0);
    for (std::size_t f = 0; f < n; ++f) {
      cap.payloads.push_back(rng.bits(96));
      frames.push_back(protocol::build_frame(cap.payloads.back(), fc));
    }
    timelines.push_back(t.transmit_epoch(frames, duration, rng).timeline);
  }
  reader::Receiver receiver(rc, ch);
  cap.buffer = receiver.receive_epoch(timelines, duration, rng);
  return cap;
}

std::size_t recovered(const DecodeResult& result,
                      const std::vector<std::vector<bool>>& payloads) {
  std::multiset<std::vector<bool>> pool;
  for (const auto& p : result.valid_payloads()) pool.insert(p);
  std::size_t n = 0;
  for (const auto& p : payloads) {
    const auto it = pool.find(p);
    if (it != pool.end()) {
      pool.erase(it);
      ++n;
    }
  }
  return n;
}

TEST(WindowedDecoder, ShortCaptureFallsThroughToPlain) {
  const auto cap = make_capture(1, 2e-3, 150.0, 11);
  WindowedDecoderConfig wc;  // 20 ms window >> 2 ms capture
  const auto win = WindowedDecoder(wc).decode(cap.buffer);
  const auto plain = LfDecoder(wc.decoder).decode(cap.buffer);
  ASSERT_EQ(win.streams.size(), plain.streams.size());
  for (std::size_t i = 0; i < win.streams.size(); ++i) {
    EXPECT_EQ(win.streams[i].bits, plain.streams[i].bits);
  }
}

TEST(WindowedDecoder, StitchesSingleTagAcrossManyWindows) {
  // 100 ms of continuous streaming = 5 windows of 20 ms.
  const auto cap = make_capture(1, 100e-3, 150.0, 12);
  WindowedDecoderConfig wc;
  const auto result = WindowedDecoder(wc).decode(cap.buffer);
  // One stitched thread, not five fragments.
  std::size_t long_threads = 0;
  for (const auto& s : result.streams) {
    if (s.bits.size() > 2000) ++long_threads;
  }
  EXPECT_EQ(long_threads, 1u);
  // Nearly all frames recovered across every seam.
  EXPECT_GE(recovered(result, cap.payloads), cap.payloads.size() - 2);
}

TEST(WindowedDecoder, TwoTagsStayOnSeparateThreads) {
  const auto cap = make_capture(2, 80e-3, 150.0, 13);
  WindowedDecoderConfig wc;
  const auto result = WindowedDecoder(wc).decode(cap.buffer);
  EXPECT_GE(recovered(result, cap.payloads),
            cap.payloads.size() * 8 / 10);
}

TEST(WindowedDecoder, BoundedMemoryEquivalence) {
  // The streaming decoder must recover a comparable share of frames to the
  // single-shot decoder on a capture that fits in memory.
  const auto cap = make_capture(3, 60e-3, 150.0, 14);
  WindowedDecoderConfig wc;
  const auto win = WindowedDecoder(wc).decode(cap.buffer);
  const auto plain = LfDecoder(wc.decoder).decode(cap.buffer);
  const std::size_t win_n = recovered(win, cap.payloads);
  const std::size_t plain_n = recovered(plain, cap.payloads);
  EXPECT_GE(win_n + cap.payloads.size() / 5, plain_n);
}

// --- window assembler ------------------------------------------------------

/// A lattice small enough to feed sample by sample: 0.5 s windows at
/// 2048 S/s are 1024-sample windows, and every threshold is exact in
/// binary (1.5 windows = 1536 samples, a quarter window = 256).
constexpr SampleRate kLatticeFs = 2048.0;
constexpr std::size_t kN = 1024;

WindowedDecoder lattice_decoder() {
  WindowedDecoderConfig wc;
  wc.window = 0.5;
  return WindowedDecoder(wc);
}

std::vector<Complex> random_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> xs(n);
  for (auto& x : xs) x = {rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
  return xs;
}

struct Chunk {
  std::uint64_t first_sample = 0;
  std::vector<Complex> samples;
};

/// Samples [begin, end) of `stream` in chunks of `size`.
std::vector<Chunk> chunked(const std::vector<Complex>& stream,
                           std::size_t begin, std::size_t end,
                           std::size_t size) {
  std::vector<Chunk> chunks;
  for (std::size_t at = begin; at < end; at += size) {
    const std::size_t stop = std::min(end, at + size);
    chunks.push_back({at, {stream.begin() + static_cast<std::ptrdiff_t>(at),
                           stream.begin() + static_cast<std::ptrdiff_t>(stop)}});
  }
  return chunks;
}

/// The lattice as a plain offset loop over the finished stream: the
/// reference the assembler must reproduce.
std::vector<Window> offset_loop_windows(const std::vector<Complex>& stream) {
  const WindowedDecoder decoder = lattice_decoder();
  const std::size_t n = decoder.window_samples(kLatticeFs);
  std::vector<Window> windows;
  if (decoder.is_short_capture(stream.size(), kLatticeFs)) {
    windows.push_back({0, true, signal::SampleBuffer(kLatticeFs, stream)});
    return windows;
  }
  for (std::size_t offset = 0; offset < stream.size(); offset += n) {
    const std::size_t end = std::min(stream.size(), offset + n);
    if (end - offset < n / 4) break;
    windows.push_back(
        {windows.size(), false,
         signal::SampleBuffer(
             kLatticeFs,
             {stream.begin() + static_cast<std::ptrdiff_t>(offset),
              stream.begin() + static_cast<std::ptrdiff_t>(end)})});
  }
  return windows;
}

struct Assembled {
  std::vector<Window> windows;
  std::uint64_t samples_in = 0;
  std::uint64_t samples_gap = 0;
};

Assembled assemble(const std::vector<Chunk>& chunks) {
  const WindowedDecoder decoder = lattice_decoder();
  Assembled out;
  WindowAssembler assembler(decoder, kLatticeFs, [&](Window window) {
    out.windows.push_back(std::move(window));
  });
  for (const Chunk& chunk : chunks) {
    assembler.push(chunk.first_sample, chunk.samples);
  }
  const std::size_t emitted = assembler.finish();
  EXPECT_EQ(emitted, out.windows.size());
  out.samples_in = assembler.samples_in();
  out.samples_gap = assembler.samples_gap();
  return out;
}

void expect_same_windows(const std::vector<Window>& got,
                         const std::vector<Window>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].whole_capture, want[i].whole_capture);
    EXPECT_EQ(got[i].samples.sample_rate(), want[i].samples.sample_rate());
    ASSERT_EQ(got[i].samples.size(), want[i].samples.size());
    EXPECT_EQ(std::memcmp(got[i].samples.span().data(),
                          want[i].samples.span().data(),
                          got[i].samples.size() * sizeof(Complex)),
              0);
  }
}

TEST(WindowAssembler, MatchesTheOffsetLoopAtEveryChunkSize) {
  // Whole captures, the hold-back boundary, both sides of the tail rule
  // and a many-window stream, each fed in chunks from one sample to more
  // than the whole stream.
  for (const std::size_t total :
       {kN / 2, kN + kN / 2, kN + kN / 2 + 1, 3 * kN + kN / 4 - 1,
        3 * kN + kN / 4, 6 * kN + 300}) {
    const auto stream = random_stream(total, total);
    const auto want = offset_loop_windows(stream);
    for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                   std::size_t{8192}, kN, kN + kN / 2 + 3}) {
      SCOPED_TRACE("total=" + std::to_string(total) +
                   " chunk=" + std::to_string(size));
      const Assembled got = assemble(chunked(stream, 0, total, size));
      expect_same_windows(got.windows, want);
      EXPECT_EQ(got.samples_in, total);
      EXPECT_EQ(got.samples_gap, 0u);
    }
  }
}

TEST(WindowAssembler, HoldsBackUntilTheStreamExceedsOneAndAHalfWindows) {
  const auto at_limit = assemble(
      chunked(random_stream(kN + kN / 2, 1), 0, kN + kN / 2, 7));
  ASSERT_EQ(at_limit.windows.size(), 1u);
  EXPECT_TRUE(at_limit.windows[0].whole_capture);
  EXPECT_EQ(at_limit.windows[0].samples.size(), kN + kN / 2);

  const auto past_limit = assemble(
      chunked(random_stream(kN + kN / 2 + 1, 2), 0, kN + kN / 2 + 1, 7));
  ASSERT_EQ(past_limit.windows.size(), 2u);
  EXPECT_FALSE(past_limit.windows[0].whole_capture);
  EXPECT_EQ(past_limit.windows[0].samples.size(), kN);
  EXPECT_EQ(past_limit.windows[1].samples.size(), kN / 2 + 1);
}

TEST(WindowAssembler, DropsOnlyATailShorterThanAQuarterWindow) {
  const auto dropped = assemble(
      chunked(random_stream(3 * kN + kN / 4 - 1, 3), 0, 3 * kN + kN / 4 - 1,
              8192));
  EXPECT_EQ(dropped.windows.size(), 3u);
  const auto kept = assemble(
      chunked(random_stream(3 * kN + kN / 4, 4), 0, 3 * kN + kN / 4, 8192));
  ASSERT_EQ(kept.windows.size(), 4u);
  EXPECT_EQ(kept.windows[3].samples.size(), kN / 4);
}

TEST(WindowAssembler, ZeroFillsAGapAcrossAWindowBoundary) {
  const std::size_t total = 4 * kN + 100;
  const std::size_t gap_begin = kN - 200;
  const std::size_t gap_end = kN + 300;
  const auto stream = random_stream(total, 5);
  std::vector<Chunk> chunks = chunked(stream, 0, gap_begin, 7);
  const auto after = chunked(stream, gap_end, total, 7);
  chunks.insert(chunks.end(), after.begin(), after.end());
  auto silenced = stream;
  std::fill(silenced.begin() + gap_begin, silenced.begin() + gap_end,
            Complex{});
  const Assembled got = assemble(chunks);
  expect_same_windows(got.windows, offset_loop_windows(silenced));
  EXPECT_EQ(got.samples_gap, gap_end - gap_begin);
  EXPECT_EQ(got.samples_in, total - (gap_end - gap_begin));
}

TEST(WindowAssembler, SkipsTheOverlapOfARewoundChunk) {
  const std::size_t total = 3 * kN + 500;
  const auto stream = random_stream(total, 6);
  std::vector<Chunk> chunks = chunked(stream, 0, kN + 40, kN + 40);
  // Starts 300 samples before the stream's end: only its tail is fresh.
  const auto rewound = chunked(stream, kN - 260, 2 * kN, 2 * kN);
  const auto rest = chunked(stream, 2 * kN, total, 7);
  chunks.insert(chunks.end(), rewound.begin(), rewound.end());
  chunks.insert(chunks.end(), rest.begin(), rest.end());
  const Assembled got = assemble(chunks);
  expect_same_windows(got.windows, offset_loop_windows(stream));
  EXPECT_EQ(got.samples_in, total);
  EXPECT_EQ(got.samples_gap, 0u);
}

TEST(WindowAssembler, EmptySourceIsOneEmptyWholeCapture) {
  const Assembled got = assemble({});
  ASSERT_EQ(got.windows.size(), 1u);
  EXPECT_EQ(got.windows[0].index, 0u);
  EXPECT_TRUE(got.windows[0].whole_capture);
  EXPECT_TRUE(got.windows[0].samples.empty());
  EXPECT_EQ(got.windows[0].samples.sample_rate(), kLatticeFs);
}

TEST(ScanFrames, ResynchronizesAfterBitSlip) {
  Rng rng(15);
  protocol::FrameConfig fc;
  const auto p1 = rng.bits(96);
  const auto p2 = rng.bits(96);
  auto bits = protocol::build_frame(p1, fc);
  bits.push_back(false);  // one slipped bit between the frames
  const auto f2 = protocol::build_frame(p2, fc);
  bits.insert(bits.end(), f2.begin(), f2.end());

  // The rigid parser loses the second frame; the scanner recovers it.
  const auto rigid = protocol::parse_stream(bits, fc);
  std::size_t rigid_ok = 0;
  for (const auto& f : rigid) {
    if (f.valid()) ++rigid_ok;
  }
  EXPECT_EQ(rigid_ok, 1u);
  const auto scanned = protocol::scan_frames(bits, fc);
  ASSERT_EQ(scanned.size(), 2u);
  EXPECT_EQ(scanned[0].payload, p1);
  EXPECT_EQ(scanned[1].payload, p2);
}

TEST(ScanFrames, EmptyAndGarbage) {
  Rng rng(16);
  protocol::FrameConfig fc;
  EXPECT_TRUE(protocol::scan_frames({}, fc).empty());
  // 2000 random bits: expected CRC-16 false positives ~ 2000/65536 << 1.
  const auto garbage = rng.bits(2000);
  EXPECT_LE(protocol::scan_frames(garbage, fc).size(), 1u);
}

}  // namespace
}  // namespace lfbs::core
