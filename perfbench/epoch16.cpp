// Workload `epoch16`: the paper's Fig 8 setup — 16 tags at 100 kbps, one
// 96-bit frame each, 1.5 ms epochs at 25 Msps, placements, channels and
// start offsets fresh from the seed every epoch. Collision-heavy: stream
// grouping, 3^k separation and k-means carry the decode cost, and a short
// capture is one job, so the runtime's windowing and stitch are bypassed.
// Epochs are decoded one at a time (closed loop, one in flight), as the
// reader's epoch loop does.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "rig.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace lfbs;

namespace {

constexpr std::size_t kEpochs = 120;

struct Epoch {
  signal::SampleBuffer samples;
  std::vector<std::vector<bool>> sent;
};

std::vector<Epoch> make_epochs(std::uint64_t seed,
                               core::DecoderConfig& decoder) {
  Rng rng(seed);
  std::vector<Epoch> epochs;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    sim::ScenarioConfig sc;
    sc.num_tags = 16;
    sim::Scenario scenario(sc, rng);
    if (e == 0) decoder = scenario.default_decoder();
    std::vector<std::vector<std::vector<bool>>> payloads(scenario.num_tags());
    Epoch epoch;
    for (auto& per_tag : payloads) {
      per_tag.push_back(rng.bits(sc.frame.payload_bits));
      epoch.sent.push_back(per_tag.back());
    }
    epoch.samples = scenario.capture_epoch(payloads, rng);
    epochs.push_back(std::move(epoch));
  }
  return epochs;
}

}  // namespace

void run_epoch16(const Options& opt, Result& out) {
  const std::size_t workers = decode_workers();

  core::WindowedDecoderConfig wc;
  const std::vector<Epoch> epochs = make_epochs(opt.seed, wc.decoder);

  // Reference outputs from the library's one-thread decode (which falls
  // through to LfDecoder on a capture this short); also warms the caches.
  std::vector<std::uint64_t> ref_digest;
  Digest digest;
  std::size_t sent = 0, recovered = 0;
  core::DecodeDiagnostics diag;
  for (const Epoch& epoch : epochs) {
    const core::DecodeResult r = core::WindowedDecoder(wc).decode(epoch.samples);
    ref_digest.push_back(digest_of(r));
    digest.add_result(r);
    sent += epoch.sent.size();
    recovered += payloads_recovered(epoch.sent, r);
    diag.collision_groups += r.diagnostics.collision_groups;
    diag.unresolved_groups += r.diagnostics.unresolved_groups;
    diag.fallback_passes += r.diagnostics.fallback_passes;
    diag.fallback_recoveries += r.diagnostics.fallback_recoveries;
  }
  out.digest = digest.hex();
  std::printf("epoch16: %zu epochs of %zu samples (%.1f ms at %.0f Msps), "
              "%zu payloads sent, %zu recovered\n",
              epochs.size(), epochs[0].samples.size(),
              epochs[0].samples.duration() * 1e3,
              epochs[0].samples.sample_rate() / 1e6, sent, recovered);

  // Bring-up is timed on throwaway rigs between epochs.
  const auto make_rig = [&] { return std::make_unique<Rig>(wc, workers); };
  SetupSampler setup(make_rig);
  setup.sample();
  std::unique_ptr<Rig> rig = make_rig();

  obs::Tracer tracer(obs::TracerConfig{std::size_t{1} << 20});
  SpanStore store;
  const auto samples_per_cycle = [&] {
    double n = 0.0;
    for (const Epoch& epoch : epochs) n += static_cast<double>(epoch.samples.size());
    return n;
  }();
  std::vector<double> serial_kps, runtime_kps, shard_kps, latency_ms;
  std::vector<double> shard_rtt_ms;
  std::vector<double> plain_wall, traced_wall;
  std::size_t traced_cycles = 0;

  const auto check = [&](const core::DecodeResult& result, std::size_t e,
                         const char* path, bool fault) {
    ++out.attempted;
    // A faulted operation is a failure; its output is not compared.
    if (fault) {
      ++out.failed;
      return;
    }
    const bool same = digest_of(result) == ref_digest[e];
    if (!same) {
      out.diverged(std::string(path) + " output differs from serial on epoch " +
                   std::to_string(e));
    }
    if (!same) ++out.failed;
  };

  // Whole cycles over the epoch set, so every rate and percentile weighs
  // each epoch equally. Rates are per epoch, and their median, so a burst
  // of host interference moves a few epochs rather than a whole cycle. The
  // traced run alternates untraced and traced cycles; the tracing overhead
  // compares the two on the same inputs.
  const double start = now_s();
  for (std::size_t cycle = 0;
       cycle < (opt.trace ? 2u : 1u) || now_s() - start < opt.seconds;
       ++cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    if (traced) obs::set_tracer(&tracer);
    double runtime_s = 0.0, serial_s = 0.0, shard_s = 0.0;
    std::vector<double> cycle_latency_ms, cycle_serial, cycle_runtime,
        cycle_shard;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      const signal::SampleBuffer& samples = epochs[e].samples;
      setup.sample();

      const double t_runtime = now_s();
      runtime::RuntimeResult run;
      {
        obs::Span s(obs::tracer(), "runtime_decode", kBenchCategory);
        run = rig->runtime.decode(samples);
      }
      const double t_serial = now_s();
      const auto& f = run.stats.faults;
      check(run.decode, e, "runtime",
            f.total() - f.low_confidence_streams > 0);

      core::DecodeResult serial;
      {
        obs::Span s(obs::tracer(), "windowed_decode", kBenchCategory);
        serial = rig->serial.decode(samples);
      }
      const double t_shard = now_s();
      check(serial, e, "serial", false);

      net::federation::ShardedDecoder::Result shard;
      bool shard_failed = false;
      try {
        runtime::MemorySource source(samples, 1 << 14);
        obs::Span s(obs::tracer(), "shard_run", kBenchCategory);
        shard = rig->sharded.run(source);
      } catch (const std::exception& ex) {
        out.notes.push_back(std::string("shard run threw: ") + ex.what());
        shard_failed = true;
      }
      const double t_end = now_s();
      check(shard.decode, e, "shard",
            shard_failed || shard.stats.workers_lost > 0);
      shard_rtt_ms.push_back(shard.stats.shard_latency_p50_ms);

      runtime_s += t_serial - t_runtime;
      serial_s += t_shard - t_serial;
      shard_s += t_end - t_shard;
      const auto ksamples = static_cast<double>(samples.size()) / 1e3;
      cycle_runtime.push_back(ksamples / (t_serial - t_runtime));
      cycle_serial.push_back(ksamples / (t_shard - t_serial));
      cycle_shard.push_back(ksamples / (t_end - t_shard));
      cycle_latency_ms.push_back((t_serial - t_runtime) * 1e3);
    }
    const double wall = runtime_s + serial_s + shard_s;
    if (traced) {
      obs::set_tracer(nullptr);
      store.drain(tracer);
      traced_wall.push_back(wall);
      ++traced_cycles;
    } else {
      plain_wall.push_back(wall);
      const auto keep = [](std::vector<double>& to,
                           const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      keep(serial_kps, cycle_serial);
      keep(runtime_kps, cycle_runtime);
      keep(shard_kps, cycle_shard);
      keep(latency_ms, cycle_latency_ms);
    }
  }
  rig.reset();

  const double recovery =
      static_cast<double>(recovered) / static_cast<double>(sent);
  out.e2e("setup_s", setup.median_s(), "s");
  out.e2e("serial_kps", median(serial_kps), "k/s");
  out.e2e("throughput_kps", median(runtime_kps), "k/s");
  out.e2e("socket_kps", median(shard_kps), "k/s");
  out.e2e("latency_p50_ms", quantile(latency_ms, 0.5), "ms");

  out.info("serial_msps", median(serial_kps) / 1e3, "Msample/s");
  out.info("decode_msps", median(runtime_kps) / 1e3, "Msample/s");
  out.info("shard_msps", median(shard_kps) / 1e3, "Msample/s");
  out.info("epoch_latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  out.info("epoch_latency_p90_ms", quantile(latency_ms, 0.9), "ms");
  out.info("epoch_latency_samples", static_cast<double>(latency_ms.size()),
           "count");
  out.info("setup_samples", static_cast<double>(setup.count()), "count");
  out.info("cycles", static_cast<double>(plain_wall.size()), "count");
  out.info("frame_recovery", recovery, "fraction");
  out.info("frames_recovered", static_cast<double>(recovered), "count");
  out.info("frames_sent", static_cast<double>(sent), "count");
  out.layer("core.frame_recovery", recovery, "fraction");

  if (opt.trace) {
    span_layer_metrics(store,
                       samples_per_cycle * 3.0 *
                           static_cast<double>(traced_cycles) / 1e6,
                       workers, out);
    out.layer("shard.msps", median(shard_kps) / 1e3, "Msample/s");
    out.layer("shard.overhead_frac",
              1.0 - median(shard_kps) / median(runtime_kps), "fraction");
    out.layer("shard.window_rtt_ms_p50", median(shard_rtt_ms), "ms");
    out.layer("shard.bytes_per_sample",
              shard_bytes_per_sample(core::WindowedDecoder(wc),
                                     epochs[0].samples),
              "B/sample");
    const double plain = median(plain_wall), with = median(traced_wall);
    out.layer("trace_overhead_pct", (with - plain) / plain * 100.0, "%");
  }
  diagnostics_layer_metrics(diag, out);
}

}  // namespace perfbench
