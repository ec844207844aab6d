// Workload `stream`: long multi-tag captures replayed closed-loop through
// the three windowing paths on the same samples — the one-thread
// WindowedDecoder::decode, the DecodeRuntime worker pool, and the
// ShardedDecoder over in-process ShardWorker threads on loopback — plus a
// window-by-window pass that times each window. Few collisions: edge
// detection and the frame/CRC scan carry the decode cost here.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "rig.h"
#include "channel/channel_model.h"
#include "core/windowed_decoder.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "tag/tag.h"

namespace perfbench {

using namespace lfbs;

namespace {

constexpr std::size_t kTags = 3;
constexpr Seconds kCaptureSeconds = 0.32;  // 16 windows of 20 ms
constexpr std::size_t kCaptures = 2;

struct Capture {
  signal::SampleBuffer samples;
  std::vector<std::vector<bool>> sent;  ///< every payload put on the air
};

/// 3 tags at 100 kbps with 150 ppm crystals, 96-bit payload frames back to
/// back, received at 5 Msps. Everything is drawn from `seed`.
Capture make_capture(std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  protocol::FrameConfig fc;
  for (std::size_t i = 0; i < kTags; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.clock.drift_ppm = 150.0;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  Capture capture;
  std::vector<signal::StateTimeline> timelines;
  const auto frames_per_tag = static_cast<std::size_t>(
      (kCaptureSeconds - 1e-3) * (100.0 * kKbps) /
      static_cast<double>(fc.frame_bits()));
  for (auto& t : tags) {
    std::vector<std::vector<bool>> frames;
    for (std::size_t f = 0; f < frames_per_tag; ++f) {
      capture.sent.push_back(rng.bits(fc.payload_bits));
      frames.push_back(protocol::build_frame(capture.sent.back(), fc));
    }
    timelines.push_back(
        t.transmit_epoch(frames, kCaptureSeconds, rng).timeline);
  }
  reader::Receiver receiver(rc, ch);
  capture.samples = receiver.receive_epoch(timelines, kCaptureSeconds, rng);
  return capture;
}

/// The per-window latency path: window by window through the public calls
/// WindowedDecoder::decode makes, timing each window from hand-over to
/// stitched; in traced rounds each call gets its own span. Returns the
/// stitched result only: decode()'s whole-capture fallback, which runs
/// when stitching finds no CRC-valid frame, is not repeated here.
core::DecodeResult window_decode(const core::WindowedDecoder& decoder,
                                 const signal::SampleBuffer& buffer,
                                 std::vector<double>& window_latency_ms) {
  const double fs = buffer.sample_rate();
  const std::size_t n = decoder.window_samples(fs);
  core::WindowStitcher stitcher(decoder.config(), fs);
  std::size_t index = 0;
  for (std::size_t offset = 0; offset < buffer.size();
       offset += n, ++index) {
    const std::size_t end = std::min(buffer.size(), offset + n);
    if (end - offset < n / 4) break;
    const double t0 = now_s();
    const auto span = buffer.slice(offset, end);
    signal::SampleBuffer slice(fs,
                               std::vector<Complex>(span.begin(), span.end()));
    core::DecodeResult window;
    {
      obs::Span s(obs::tracer(), "decode_window", kBenchCategory);
      window = decoder.decode_window(slice, index);
    }
    {
      obs::Span s(obs::tracer(), "add_window", kBenchCategory);
      stitcher.add_window(std::move(window), offset);
    }
    window_latency_ms.push_back((now_s() - t0) * 1e3);
  }
  obs::Span s(obs::tracer(), "finish", kBenchCategory);
  return stitcher.finish();
}

}  // namespace

void run_stream(const Options& opt, Result& out) {
  const std::size_t workers = decode_workers();
  const core::WindowedDecoderConfig wc;

  // Each capture is one channel draw, and decode cost and recovery swing
  // widely between draws; every round decodes all of them so a run's
  // figures do not hinge on one draw.
  Rng seeds(opt.seed);
  std::vector<Capture> captures;
  std::vector<std::uint64_t> ref_digest;
  Digest digest;
  core::DecodeDiagnostics diag;
  double samples = 0.0;
  std::size_t sent = 0, recovered = 0;
  for (std::size_t i = 0; i < kCaptures; ++i) {
    captures.push_back(make_capture(seeds.uniform_u64(~0ull)));
    const Capture& c = captures.back();
    // Reference output: the library's own one-thread windowed decode.
    // Also warms the caches before anything is timed.
    const core::DecodeResult r = core::WindowedDecoder(wc).decode(c.samples);
    ref_digest.push_back(digest_of(r));
    digest.add_result(r);
    diag.collision_groups += r.diagnostics.collision_groups;
    diag.unresolved_groups += r.diagnostics.unresolved_groups;
    diag.fallback_passes += r.diagnostics.fallback_passes;
    diag.fallback_recoveries += r.diagnostics.fallback_recoveries;
    samples += static_cast<double>(c.samples.size());
    sent += c.sent.size();
    recovered += payloads_recovered(c.sent, r);
    std::printf("stream: capture %zu: %zu samples (%.0f ms at %.1f Msps), "
                "%zu tags, %zu payloads sent, %zu streams decoded\n",
                i, c.samples.size(), kCaptureSeconds * 1e3,
                c.samples.sample_rate() / 1e6, kTags, c.sent.size(),
                r.streams.size());
  }
  out.digest = digest.hex();
  const double recovery =
      static_cast<double>(recovered) / static_cast<double>(sent);

  // Bring-up is timed on throwaway rigs between the timed calls.
  const auto make_rig = [&] { return std::make_unique<Rig>(wc, workers); };
  SetupSampler setup(make_rig);
  setup.sample();
  std::unique_ptr<Rig> rig = make_rig();

  obs::Tracer tracer(obs::TracerConfig{std::size_t{1} << 20});
  SpanStore store;
  std::vector<double> serial_kps, runtime_kps, shard_kps, window_ms;
  std::vector<double> shard_rtt_ms, traced_wall, plain_wall;
  std::size_t traced_rounds = 0;

  const auto check = [&](const core::DecodeResult& result, std::size_t i,
                         const char* path, bool fault) {
    ++out.attempted;
    // A faulted operation is a failure; its output is not compared.
    if (fault) {
      ++out.failed;
      return;
    }
    const bool same = digest_of(result) == ref_digest[i];
    if (!same) {
      out.diverged(std::string(path) + " output differs from serial on "
                   "capture " + std::to_string(i));
    }
    if (!same) ++out.failed;
  };

  const double start = now_s();
  for (std::size_t round = 0;
       round < (opt.trace ? 2u : 1u) || now_s() - start < opt.seconds;
       ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    if (traced) obs::set_tracer(&tracer);
    double serial_s = 0.0, window_s = 0.0, runtime_s = 0.0, shard_s = 0.0;
    std::vector<double> latencies, rtt;
    for (std::size_t i = 0; i < captures.size(); ++i) {
      const signal::SampleBuffer& capture = captures[i].samples;

      setup.sample();
      double t0 = now_s();
      core::DecodeResult serial;
      {
        obs::Span s(obs::tracer(), "windowed_decode", kBenchCategory);
        serial = rig->serial.decode(capture);
      }
      serial_s += now_s() - t0;
      check(serial, i, "serial", false);

      setup.sample();
      t0 = now_s();
      const core::DecodeResult windows =
          window_decode(rig->serial, capture, latencies);
      window_s += now_s() - t0;
      // decode() returns the stitched result unless it holds no CRC-valid
      // frame; only then may its whole-capture fallback differ.
      if (!windows.valid_payloads().empty()) {
        check(windows, i, "window-by-window", false);
      }

      setup.sample();
      t0 = now_s();
      runtime::RuntimeResult run;
      {
        obs::Span s(obs::tracer(), "runtime_decode", kBenchCategory);
        run = rig->runtime.decode(capture);
      }
      runtime_s += now_s() - t0;
      // Low-confidence streams are a channel verdict (frame_recovery shows
      // it); every other contained fault is a failed run.
      const auto& f = run.stats.faults;
      check(run.decode, i, "runtime",
            f.total() - f.low_confidence_streams > 0);

      setup.sample();
      t0 = now_s();
      net::federation::ShardedDecoder::Result shard;
      bool shard_failed = false;
      try {
        runtime::MemorySource source(capture, 1 << 14);
        obs::Span s(obs::tracer(), "shard_run", kBenchCategory);
        shard = rig->sharded.run(source);
      } catch (const std::exception& e) {
        out.notes.push_back(std::string("shard run threw: ") + e.what());
        shard_failed = true;
      }
      shard_s += now_s() - t0;
      rtt.push_back(shard.stats.shard_latency_p50_ms);
      check(shard.decode, i, "shard",
            shard_failed || shard.stats.workers_lost > 0);
    }

    const double wall = serial_s + window_s + runtime_s + shard_s;
    if (traced) {
      obs::set_tracer(nullptr);
      store.drain(tracer);
      traced_wall.push_back(wall);
      ++traced_rounds;
    } else {
      plain_wall.push_back(wall);
      serial_kps.push_back(samples / serial_s / 1e3);
      runtime_kps.push_back(samples / runtime_s / 1e3);
      shard_kps.push_back(samples / shard_s / 1e3);
      shard_rtt_ms.insert(shard_rtt_ms.end(), rtt.begin(), rtt.end());
      window_ms.insert(window_ms.end(), latencies.begin(), latencies.end());
    }
  }
  rig.reset();

  out.e2e("setup_s", setup.median_s(), "s");
  out.e2e("serial_kps", median(serial_kps), "k/s");
  out.e2e("throughput_kps", median(runtime_kps), "k/s");
  out.e2e("socket_kps", median(shard_kps), "k/s");
  out.e2e("latency_p50_ms", quantile(window_ms, 0.5), "ms");

  out.info("serial_msps", median(serial_kps) / 1e3, "Msample/s");
  out.info("decode_msps", median(runtime_kps) / 1e3, "Msample/s");
  out.info("shard_msps", median(shard_kps) / 1e3, "Msample/s");
  out.info("window_latency_p50_ms", quantile(window_ms, 0.5), "ms");
  out.info("window_latency_p90_ms", quantile(window_ms, 0.9), "ms");
  out.info("window_latency_samples", static_cast<double>(window_ms.size()),
           "count");
  out.info("setup_samples", static_cast<double>(setup.count()), "count");
  out.info("rounds", static_cast<double>(serial_kps.size()), "count");
  out.info("frame_recovery", recovery, "fraction");
  out.info("frames_recovered", static_cast<double>(recovered), "count");
  out.info("frames_sent", static_cast<double>(sent), "count");
  out.layer("core.frame_recovery", recovery, "fraction");
  diagnostics_layer_metrics(diag, out);

  if (opt.trace) {
    // Four paths decode every capture in a traced round.
    span_layer_metrics(store, samples * 4.0 *
                                  static_cast<double>(traced_rounds) / 1e6,
                       workers, out);
    out.layer("shard.msps", median(shard_kps) / 1e3, "Msample/s");
    out.layer("shard.overhead_frac",
              1.0 - median(shard_kps) / median(runtime_kps), "fraction");
    out.layer("shard.window_rtt_ms_p50", median(shard_rtt_ms), "ms");
    out.layer("shard.bytes_per_sample",
              shard_bytes_per_sample(core::WindowedDecoder(wc),
                                     captures[0].samples),
              "B/sample");
    const double plain = median(plain_wall), with = median(traced_wall);
    out.layer("trace_overhead_pct", (with - plain) / plain * 100.0, "%");
  }
}

}  // namespace perfbench
