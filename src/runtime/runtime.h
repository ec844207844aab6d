#pragma once

#include <atomic>
#include <cstdint>

#include "core/windowed_decoder.h"
#include "runtime/frame_bus.h"
#include "runtime/ring_buffer.h"
#include "runtime/sample_source.h"
#include "runtime/stats.h"
#include "runtime/supervisor.h"
#include "signal/sample_buffer.h"

namespace lfbs::runtime {

/// Concurrent streaming decode pipeline:
///
///   SampleSource → [chunk ring] → assembler → [job queue] → worker pool
///                                                               │
///            FrameBus ← stitcher thread ← [in-order reorder] ←──┘
///
/// The source is drained on the caller's thread into a bounded chunk ring
/// (blocking or drop-on-overflow per `drop_when_full`). The assembler
/// thread cuts the sample stream with core::WindowAssembler and feeds a
/// bounded job queue; `workers` threads decode windows independently
/// (each window's decoder draws from its own Rng stream, keyed by window
/// index); a single stitcher thread reorders results back into window
/// order and runs the serial continuity-key stitch. The output is
/// bit-identical to core::WindowedDecoder::decode on the same samples
/// whenever the stitched result holds a CRC-valid frame; when it holds
/// none, the serial decode alone re-decodes the whole capture with the
/// fallback ladder, and run() returns the stitch as it stands.
/// Decoded frames fan out through the FrameBus (on the stitcher thread)
/// before run() returns the stitched DecodeResult and a stats snapshot.
///
/// A Supervisor wraps the whole pipeline (see supervisor.h): transient
/// source errors are retried with backoff, stalled reads and decodes are
/// detected by a watchdog, a throwing window decode is zero-filled instead
/// of killing the run, subscriber exceptions are isolated on the bus, and
/// the run's health (healthy / degraded / failed) plus per-fault counters
/// come back in RuntimeStats. run() completes and returns on every fault
/// path — it degrades, it never crashes or deadlocks.
struct RuntimeConfig {
  core::WindowedDecoderConfig windowed{};
  /// Window decode threads. 0 is clamped to 1.
  std::size_t workers = 4;
  /// Chunk ring capacity, in chunks.
  std::size_t ring_capacity = 64;
  /// Overflow policy when the decode side falls behind the source: false
  /// blocks the producer (lossless — replay and in-memory decode); true
  /// drops whole chunks and counts them (live capture can't wait), and the
  /// assembler zero-fills the gap to keep the window lattice aligned.
  bool drop_when_full = false;
  /// Fault supervision: source retry/backoff, stall watchdog, worker
  /// exception containment, non-finite scrubbing, health accounting. The
  /// defaults are inert on fault-free runs (bit-identical output).
  SupervisorConfig supervision{};
  /// Optional external stop flag (e.g. a signal handler's atomic). When it
  /// becomes true the ingest loop stops pulling from the source; every
  /// chunk already ingested still decodes, stitches, and publishes before
  /// run() returns with stats.stopped_early set. The flag is only read.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Epoch stamped on every published FrameEvent (FrameIdentity's first
  /// coordinate). A gateway decoding successive captures bumps this so
  /// frames from different runs stay distinguishable across the
  /// federation's dedup.
  std::uint64_t epoch_index = 0;
  /// Optional downstream throttle (gateway overload protection). When the
  /// serving side's ResourceBudget saturates it engages this gate and the
  /// ingest loop pauses — at most backpressure_max_wait per chunk — before
  /// admitting the next chunk to the ring, so queue memory stays flat
  /// instead of growing until eviction. Bounded by construction: a dead
  /// releasing side slows ingest, it can never deadlock the pipeline, and
  /// no chunk is ever dropped by the gate — fault-free runs stay
  /// bit-identical to ungated ones. The gate is only read here;
  /// the caller owns it and must outlive run().
  BackpressureGate* backpressure = nullptr;
  Seconds backpressure_max_wait = 0.05;
};

struct RuntimeResult {
  core::DecodeResult decode;
  RuntimeStats stats;
};

class DecodeRuntime {
 public:
  explicit DecodeRuntime(RuntimeConfig config);

  const RuntimeConfig& config() const { return config_; }

  /// Subscribers registered here see every decoded frame of subsequent
  /// run() calls; handlers fire on the stitcher thread.
  FrameBus& bus() { return bus_; }

  /// Blocking: drains `source` to end-of-stream through the pipeline and
  /// returns the stitched result. One run at a time per runtime.
  RuntimeResult run(SampleSource& source);

  /// Convenience: streams an in-memory capture through the pipeline.
  RuntimeResult decode(const signal::SampleBuffer& buffer,
                       std::size_t chunk_samples = 1 << 16);

  /// Asks the active run to stop ingesting and drain (same semantics as
  /// RuntimeConfig::stop_flag). Safe from any thread; sticky for the
  /// runtime's lifetime.
  void request_stop() { stop_requested_.store(true); }

 private:
  RuntimeConfig config_;
  FrameBus bus_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace lfbs::runtime
