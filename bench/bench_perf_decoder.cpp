// Decoder performance benchmarks (google-benchmark). Not a paper figure:
// sanity that the software decoder keeps up with the 25 Msps stream the
// paper's USRP front end produces, plus microbenchmarks of the hot stages.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "core/lf_decoder.h"
#include "dsp/kmeans.h"
#include "dsp/peaks.h"
#include "dsp/stats.h"
#include "dsp/viterbi.h"
#include "protocol/frame.h"
#include "signal/edge_detector.h"
#include "sim/scenario.h"

using namespace lfbs;

namespace {

/// `tags` tags at 100 kbps sending frames back to back for `duration`
/// (at least one frame each), received at `fs`.
signal::SampleBuffer make_capture(std::size_t tags, SampleRate fs,
                                  Seconds duration, std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  rc.sample_rate = fs;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tag_objs;
  for (std::size_t i = 0; i < tags; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.06, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tag_objs.emplace_back(tc, rng);
  }
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  const auto frames_per_tag = std::max<std::size_t>(
      1, static_cast<std::size_t>((duration - 1e-3) * (100.0 * kKbps) /
                                  static_cast<double>(fc.frame_bits())));
  std::vector<signal::StateTimeline> timelines;
  for (auto& t : tag_objs) {
    std::vector<std::vector<bool>> frames;
    for (std::size_t f = 0; f < frames_per_tag; ++f) {
      frames.push_back(protocol::build_frame(rng.bits(96), fc));
    }
    timelines.push_back(t.transmit_epoch(frames, duration, rng).timeline);
  }
  return receiver.receive_epoch(timelines, duration, rng);
}

/// The Fig 8 epoch: 16 colliding tags, one frame each, 1.5 ms at 25 Msps.
signal::SampleBuffer make_epoch(std::size_t tags, std::uint64_t seed) {
  return make_capture(tags, 25.0 * kMsps, 1.5e-3, seed);
}

/// One decode window of the long-capture path: 3 tags, 20 ms at 5 Msps
/// (100k samples).
signal::SampleBuffer make_window(std::uint64_t seed) {
  return make_capture(3, 5.0 * kMsps, 20e-3, seed);
}

void BM_FullDecode16Tags(benchmark::State& state) {
  const auto buffer = make_epoch(16, 11);
  const core::LfDecoder decoder{core::DecoderConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(buffer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buffer.size()));
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(buffer.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullDecode16Tags)->Unit(benchmark::kMillisecond);

void BM_EdgeDetection(benchmark::State& state,
                      const signal::SampleBuffer& buffer) {
  const signal::EdgeDetector detector{signal::EdgeDetectorConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(buffer));
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(buffer.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_EdgeDetection, epoch16, make_epoch(16, 12))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EdgeDetection, window3, make_window(13))
    ->Unit(benchmark::kMillisecond);

// The median edge detection takes twice per window (|dS|, then the MAD).
void BM_Percentile(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> xs(100000);
  for (double& x : xs) x = std::abs(rng.gaussian(0.0, 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::median(xs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_Percentile)->Unit(benchmark::kMicrosecond);

// Peak picking on a real |dS| series, at the threshold detect() derives.
void BM_FindPeaks(benchmark::State& state) {
  const signal::EdgeDetectorConfig cfg;
  const std::vector<double> d =
      signal::EdgeDetector{cfg}.differential_magnitude(make_window(13));
  const double med = dsp::median(d);
  std::vector<double> dev(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) dev[i] = std::abs(d[i] - med);
  const signal::NoiseEstimate noise{med, 1.4826 * dsp::median(dev)};
  dsp::PeakOptions opts;
  opts.min_value = noise.threshold(cfg.threshold_sigma, cfg.min_strength);
  opts.min_distance = cfg.min_separation;
  std::size_t peaks = 0;
  for (auto _ : state) {
    const auto found = dsp::find_peaks(d, opts);
    peaks = found.size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["peaks"] = static_cast<double>(peaks);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.size()));
}
BENCHMARK(BM_FindPeaks)->Unit(benchmark::kMicrosecond);

// The resynchronizing frame scan over ~10k decoded bits: 96-bit CRC-16
// frames, one in five followed by a slipped bit and one in four with a
// flipped bit, which the scan has to step through offset by offset.
void BM_ScanFrames(benchmark::State& state) {
  Rng rng(4);
  const protocol::FrameConfig fc;
  std::vector<bool> bits;
  while (bits.size() < 10000) {
    auto frame = protocol::build_frame(rng.bits(fc.payload_bits), fc);
    if (rng.bernoulli(0.25)) {
      const auto flip = rng.uniform_u64(frame.size());
      frame[flip] = !frame[flip];
    }
    bits.insert(bits.end(), frame.begin(), frame.end());
    if (rng.bernoulli(0.2)) bits.push_back(rng.bernoulli(0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::scan_frames(bits, fc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_ScanFrames)->Unit(benchmark::kMicrosecond);

void BM_KMeans9(benchmark::State& state) {
  Rng rng(5);
  std::vector<Complex> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  for (auto _ : state) {
    Rng krng(7);
    benchmark::DoNotOptimize(dsp::kmeans(points, 9, krng));
  }
}
BENCHMARK(BM_KMeans9)->Unit(benchmark::kMicrosecond);

void BM_Viterbi4State(benchmark::State& state) {
  const double e = std::log(0.5);
  const double no = dsp::Viterbi::kForbidden;
  const dsp::Viterbi viterbi({{no, e, e, no},
                              {e, no, no, e},
                              {no, e, e, no},
                              {e, no, no, e}},
                             {0.0, no, no, no});
  for (auto _ : state) {
    benchmark::DoNotOptimize(viterbi.decode(
        400, [](std::size_t s, std::size_t st) {
          return -0.1 * static_cast<double>((s * 31 + st) % 7);
        }));
  }
}
BENCHMARK(BM_Viterbi4State)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
