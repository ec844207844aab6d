#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/windowed_decoder.h"
#include "net/admission.h"
#include "net/socket.h"
#include "runtime/frame_bus.h"
#include "runtime/sample_source.h"
#include "runtime/stats.h"

namespace lfbs::net::federation {

struct ShardWorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ShardConfig {
  core::WindowedDecoderConfig windowed{};
  std::vector<ShardWorkerEndpoint> workers;
  std::string name = "lfbs-shard-coordinator";
  Seconds connect_timeout = 5.0;
  /// Epoch stamped on published frames, like RuntimeConfig::epoch_index.
  std::uint64_t epoch_index = 0;
  /// Per-link stall deadline: a worker whose *oldest* outstanding window
  /// has been in flight this long is declared dead and fails over (see
  /// ShardedDecoder). Also bounds the post-run wait for a worker's Bye. Generous default —
  /// a window decode is milliseconds; 30 s means genuinely wedged.
  Seconds worker_deadline = 30.0;
  /// Optional overload budget, usually the same pool the gateway's
  /// FrameServer charges its send queues against. Every retained
  /// in-flight window's sample bytes are charged while the
  /// window is outstanding and released when its result lands (or the run
  /// ends), so a gateway coordinating shards sees its true memory
  /// footprint in one number. While the pool is saturated, dispatch
  /// throttles (bounded — it drains results to free budget, then
  /// proceeds regardless; results must flow or nothing ever frees).
  /// Caller-owned; must outlive run(). nullptr = unbudgeted.
  ResourceBudget* budget = nullptr;
};

struct ShardStats {
  std::uint64_t samples_in = 0;
  std::size_t windows_assigned = 0;
  std::size_t windows_decoded = 0;
  std::size_t streams = 0;
  std::size_t frames_published = 0;
  double wall_seconds = 0.0;
  /// Dispatch-to-result latency per window, aggregated across workers.
  double shard_latency_p50_ms = 0.0;
  double shard_latency_p99_ms = 0.0;
  /// Failover accounting: links declared dead mid-run and the outstanding
  /// windows re-dispatched to survivors (0/0 on a healthy pool).
  std::size_t workers_lost = 0;
  std::size_t windows_reassigned = 0;
};

/// Cross-process sharded decode: the coordinator cuts a sample source into
/// windows with core::WindowAssembler, the same lattice as the runtime and
/// the serial decoder, and round-robins each window to a pool of
/// ShardWorker processes over LFBW1 (kShardAssign + f64 kIqChunks). It
/// collects kShardFrame results as workers finish, folds them through a
/// WindowStitcher in window order, and publishes the stitched frames on
/// this coordinator's FrameBus via the shared runtime::publish_frames
/// helper.
///
/// Bit-identity contract: because windows decode under index-mixed seeds,
/// samples transit as f64 bit patterns, and the lattice and the stitch are
/// the same code in the same order, run() over N worker processes returns
/// (and publishes) a DecodeResult bit-identical to the runtime's, and to
/// core::WindowedDecoder::decode whenever the stitched result holds a
/// CRC-valid frame. When it holds none, only the serial decode re-decodes
/// the whole capture with the fallback ladder. The tests enforce both
/// halves across real processes.
///
/// Failure stance: strict about *results*, resilient about *workers*. A
/// worker that dies, stalls past worker_deadline, or speaks garbage mid-run
/// is dropped and its outstanding windows are re-dispatched to the
/// survivors; the completed run has the same bits as a healthy pool's
/// (window seeds are index-mixed, so *which* worker decodes a window cannot
/// change its bits), and ShardStats records workers_lost /
/// windows_reassigned. Only zero surviving workers (or a pool that fails
/// its initial connect — that is a configuration error) fails the run with
/// SocketError.
class ShardedDecoder {
 public:
  struct Result {
    core::DecodeResult decode;
    ShardStats stats;
  };

  explicit ShardedDecoder(ShardConfig config);

  /// Frames publish here (on the calling thread of run()).
  runtime::FrameBus& bus() { return bus_; }

  /// Blocking: drains `source`, shards, merges, publishes. Throws
  /// SocketError / WireFormatError / CheckError when the pool misbehaves.
  Result run(runtime::SampleSource& source);

 private:
  struct WorkerLink;

  ShardConfig config_;
  runtime::FrameBus bus_;
};

}  // namespace lfbs::net::federation
