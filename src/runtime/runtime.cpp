#include "runtime/runtime.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/chunk.h"
#include "runtime/ring_buffer.h"

namespace lfbs::runtime {

namespace {

/// Streams whose composite decode confidence lands below this floor (or
/// that needed a degraded fallback stage) are reported to the supervisor
/// and degrade run health — the channel, not the software, is the fault,
/// but the operator should see it in the same place.
constexpr double kConfidenceFloor = 0.2;

struct WindowOutcome {
  bool whole_capture = false;
  core::DecodeResult result;
};

/// Handoff from the worker pool back into window order: workers deliver
/// results as they finish, the stitcher awaits them strictly in sequence.
class ReorderInbox {
 public:
  void deliver(std::size_t index, WindowOutcome outcome) {
    {
      std::lock_guard lock(mutex_);
      ready_.emplace(index, std::move(outcome));
    }
    cv_.notify_all();
  }

  /// Announces the total number of windows (known only once the source is
  /// drained); unblocks the stitcher's final await.
  void set_expected(std::size_t n) {
    {
      std::lock_guard lock(mutex_);
      expected_ = n;
      has_expected_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until window `index` arrives; std::nullopt once the run is
  /// known to hold no window `index`.
  std::optional<WindowOutcome> await(std::size_t index) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] {
      return ready_.count(index) != 0 ||
             (has_expected_ && index >= expected_);
    });
    const auto it = ready_.find(index);
    if (it == ready_.end()) return std::nullopt;
    WindowOutcome outcome = std::move(it->second);
    ready_.erase(it);
    return outcome;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::size_t, WindowOutcome> ready_;
  std::size_t expected_ = 0;
  bool has_expected_ = false;
};

}  // namespace

DecodeRuntime::DecodeRuntime(RuntimeConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK(config_.windowed.window > 0.0);
}

RuntimeResult DecodeRuntime::run(SampleSource& source) {
  LFBS_OBS_SPAN(run_span, "run", "runtime");
  static obs::Counter& runs = obs::metrics().counter("runtime.runs");
  static obs::Counter& windows_counter =
      obs::metrics().counter("runtime.windows_decoded");
  static obs::Counter& frames_counter =
      obs::metrics().counter("runtime.frames_published");
  runs.add();
  const SampleRate fs = source.sample_rate();
  LFBS_CHECK_MSG(fs > 0.0, "sample source must declare a sample rate");
  const core::WindowedDecoder decoder(config_.windowed);
  const std::size_t window_samples = decoder.window_samples(fs);
  const std::size_t num_workers = std::max<std::size_t>(1, config_.workers);

  BoundedRing<SampleChunk> ring(
      std::max<std::size_t>(1, config_.ring_capacity));
  BoundedRing<core::Window> jobs(std::max<std::size_t>(2 * num_workers, 4));
  ReorderInbox inbox;
  LatencyRecorder latency;
  Supervisor supervisor(config_.supervision, num_workers);
  supervisor.start();
  const std::size_t bus_exceptions_before = bus_.handler_exceptions();
  std::atomic<std::size_t> windows_dispatched{0};
  std::atomic<std::size_t> windows_decoded{0};
  std::uint64_t samples_in = 0;   // written by assembler, read after join
  std::uint64_t samples_gap = 0;
  std::size_t frames_published = 0;  // written by stitcher, read after join
  RuntimeResult out;

  const auto t0 = std::chrono::steady_clock::now();

  // Assembler: chunk stream → the decoder's window lattice.
  std::thread assembler_thread([&] {
    core::WindowAssembler assembler(decoder, fs, [&](core::Window window) {
      ++windows_dispatched;
      jobs.push(std::move(window));
    });
    while (auto chunk = ring.pop()) {
      assembler.push(chunk->first_sample, chunk->samples);
    }
    inbox.set_expected(assembler.finish());
    samples_in = assembler.samples_in();
    samples_gap = assembler.samples_gap();
    jobs.close();
  });

  // Worker pool: windows decode independently and in any order; each
  // window's decoder seed is keyed by window index (WindowedDecoder::
  // decode_window), so results do not depend on which worker ran it.
  std::vector<std::thread> pool;
  pool.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    pool.emplace_back([&, w] {
      while (auto job = jobs.pop()) {
        const auto start = std::chrono::steady_clock::now();
        LFBS_OBS_SPAN(window_span, "window", "runtime");
        window_span.attr("index", static_cast<double>(job->index));
        window_span.attr("worker", static_cast<double>(w));
        WindowOutcome outcome;
        outcome.whole_capture = job->whole_capture;
        // Exception containment: a throwing window decode yields an empty
        // (zero-filled) window result, exactly what a silent window would
        // produce — the stitcher carries surviving threads across it — and
        // the run degrades instead of terminating the process.
        try {
          const auto activity = supervisor.track_worker(w);
          if (supervisor.config().decode_fault_hook) {
            supervisor.config().decode_fault_hook(job->index);
          }
          outcome.result = decoder.decode_window(*job);
        } catch (const std::exception&) {
          outcome.result = core::DecodeResult{};
          supervisor.record_worker_exception();
        }
        latency.record(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
        ++windows_decoded;
        windows_counter.add();
        inbox.deliver(job->index, std::move(outcome));
      }
    });
  }

  // Stitcher: folds windows back together strictly in order, then fans
  // the decoded frames out on the bus.
  std::thread stitcher_thread([&] {
    core::WindowStitcher stitcher(config_.windowed, fs);
    std::size_t next = 0;
    while (auto outcome = inbox.await(next)) {
      stitcher.add(next++, outcome->whole_capture, std::move(outcome->result));
    }
    out.decode = stitcher.finish();
    const std::size_t published = publish_frames(
        bus_, out.decode, config_.epoch_index, window_samples);
    frames_published += published;
    frames_counter.add(published);
  });

  // Ingest on the caller's thread: source → chunk ring, with the
  // configured overflow policy. Reads go through the supervisor — retry
  // with backoff on transient errors, scrub non-finite samples — so a
  // flaky source degrades the run instead of wedging or killing it. A
  // stop request (signal handler flag or request_stop) ends ingest early
  // but everything already in flight still drains and publishes.
  const auto stop_requested = [&] {
    return stop_requested_.load(std::memory_order_relaxed) ||
           (config_.stop_flag != nullptr &&
            config_.stop_flag->load(std::memory_order_relaxed));
  };
  bool stopped_early = false;
  std::size_t backpressure_waits = 0;
  Seconds backpressure_seconds = 0.0;
  for (;;) {
    if (stop_requested()) {
      stopped_early = true;
      break;
    }
    auto chunk = supervisor.next_chunk(source);
    if (!chunk) break;
    supervisor.scrub(*chunk);
    // Downstream backpressure: when the serving side's budget saturates,
    // pause (bounded) before admitting the chunk. A delay, never a drop —
    // the chunk goes into the ring either way.
    if (config_.backpressure != nullptr &&
        config_.backpressure->engaged()) {
      const auto wait_start = std::chrono::steady_clock::now();
      if (config_.backpressure->wait(std::chrono::duration<double>(
              config_.backpressure_max_wait))) {
        ++backpressure_waits;
        backpressure_seconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wait_start)
                .count();
      }
    }
    if (config_.drop_when_full) {
      ring.offer(std::move(*chunk));
    } else {
      ring.push(std::move(*chunk));
    }
  }
  ring.close();

  assembler_thread.join();
  for (auto& t : pool) t.join();
  stitcher_thread.join();
  supervisor.stop();

  // Data lost in flight (ring overflow, zero-filled gaps) is a contained
  // fault: the output is no longer the full capture's decode.
  if (ring.dropped() > 0 || samples_gap > 0) supervisor.record_data_loss();
  supervisor.record_subscriber_exceptions(bus_.handler_exceptions() -
                                          bus_exceptions_before);

  out.stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  out.stats.chunks_in = ring.pushed();
  out.stats.chunks_dropped = ring.dropped();
  out.stats.ring_high_watermark = ring.high_watermark();
  out.stats.samples_in = samples_in;
  out.stats.samples_gap = samples_gap;
  out.stats.backpressure_waits = backpressure_waits;
  out.stats.backpressure_seconds = backpressure_seconds;
  out.stats.windows_dispatched = windows_dispatched.load();
  out.stats.windows_decoded = windows_decoded.load();
  out.stats.streams = out.decode.streams.size();
  out.stats.frames_published = frames_published;

  // Decode-confidence digest: the supervisor treats low-confidence output
  // as a contained fault so the health state reflects decode quality, not
  // just software faults.
  out.stats.erasures = out.decode.diagnostics.erasures;
  out.stats.fallback_passes = out.decode.diagnostics.fallback_passes;
  out.stats.fallback_recoveries = out.decode.diagnostics.fallback_recoveries;
  if (!out.decode.streams.empty()) {
    double sum = 0.0;
    double min_score = 1.0;
    std::size_t low = 0;
    for (const auto& stream : out.decode.streams) {
      const double score = stream.confidence.score();
      sum += score;
      min_score = std::min(min_score, score);
      const bool degraded =
          stream.confidence.stage != core::FallbackStage::kPrimary;
      if (degraded) ++out.stats.degraded_streams;
      if (score < kConfidenceFloor || degraded) ++low;
    }
    out.stats.mean_confidence =
        sum / static_cast<double>(out.decode.streams.size());
    out.stats.min_confidence = min_score;
    supervisor.record_low_confidence(low);
  }

  out.stats.health = supervisor.health();
  out.stats.faults = supervisor.counters();
  out.stats.stopped_early = stopped_early;
  latency.summarize(out.stats);
  obs::metrics().gauge("runtime.ring_high_watermark")
      .set(static_cast<double>(out.stats.ring_high_watermark));
  run_span.attr("windows", static_cast<double>(out.stats.windows_decoded));
  run_span.attr("frames", static_cast<double>(out.stats.frames_published));
  return out;
}

RuntimeResult DecodeRuntime::decode(const signal::SampleBuffer& buffer,
                                    std::size_t chunk_samples) {
  MemorySource source(buffer, chunk_samples);
  return run(source);
}

}  // namespace lfbs::runtime
