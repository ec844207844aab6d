#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/windowed_decoder.h"
#include "net/federation/shard.h"
#include "net/federation/shard_wire.h"
#include "net/federation/shard_worker.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/runtime.h"

namespace perfbench {

/// The in-process shard pool: ShardWorkers on loopback, each serving one
/// coordinator session after another on its own thread (as lfbs_soak runs
/// them).
class ShardPool {
 public:
  explicit ShardPool(std::size_t workers) {
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.push_back(std::make_unique<lfbs::net::federation::ShardWorker>(
          lfbs::net::federation::ShardWorkerConfig{
              "127.0.0.1", 0, "perfbench-worker-" + std::to_string(i)}));
      endpoints_.push_back({"127.0.0.1", workers_.back()->port()});
    }
    for (auto& worker : workers_) {
      threads_.emplace_back([this, w = worker.get()] {
        started_.fetch_add(1);
        while (!stop_.load(std::memory_order_relaxed)) {
          try {
            w->serve();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "shard worker: %s\n", e.what());
          }
        }
      });
    }
    // Spawned means running: bring-up ends once every worker thread is.
    while (started_.load() < threads_.size()) std::this_thread::yield();
  }
  ~ShardPool() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& worker : workers_) worker->stop();
    // A worker waiting for a coordinator sees the stop only at its next
    // 100 ms poll tick; a connect wakes it now.
    for (const auto& endpoint : endpoints_) {
      try {
        lfbs::net::TcpConnection::connect(endpoint.host, endpoint.port, 1.0);
      } catch (const std::exception&) {
        // Already gone: nothing to wake.
      }
    }
    for (auto& t : threads_) t.join();
  }
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  const std::vector<lfbs::net::federation::ShardWorkerEndpoint>& endpoints() const {
    return endpoints_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> started_{0};
  std::vector<std::unique_ptr<lfbs::net::federation::ShardWorker>> workers_;
  std::vector<lfbs::net::federation::ShardWorkerEndpoint> endpoints_;
  std::vector<std::thread> threads_;
};

/// Everything brought up before the first sample is handed over. The
/// runtime and the shard pool each get `workers` decode threads.
struct Rig {
  Rig(const lfbs::core::WindowedDecoderConfig& wc, std::size_t workers)
      : serial(wc),
        runtime([&] {
          lfbs::runtime::RuntimeConfig rc;
          rc.windowed = wc;
          rc.workers = workers;
          return rc;
        }()),
        pool(workers),
        sharded([&] {
          lfbs::net::federation::ShardConfig sc;
          sc.windowed = wc;
          sc.workers = pool.endpoints();
          sc.name = "perfbench-coordinator";
          return sc;
        }()) {}

  lfbs::core::WindowedDecoder serial;
  lfbs::runtime::DecodeRuntime runtime;
  ShardPool pool;
  lfbs::net::federation::ShardedDecoder sharded;
};

/// LFBW1 bytes the shard coordinator sends per sample of `buffer`: per
/// window one assign plus the window's samples as f64 IQ messages of 64 Ki
/// samples, as ShardedDecoder::run encodes them (a short capture is one
/// whole-buffer window). Covers the IQ direction only.
inline double shard_bytes_per_sample(const lfbs::core::WindowedDecoder& decoder,
                                     const lfbs::signal::SampleBuffer& buffer) {
  constexpr std::size_t kIqChunkSamples = std::size_t{1} << 16;
  const double fs = buffer.sample_rate();
  const std::size_t n = decoder.is_short_capture(buffer.size(), fs)
                            ? buffer.size()
                            : decoder.window_samples(fs);
  std::size_t bytes = 0, samples = 0;
  std::vector<std::uint8_t> out;
  for (std::size_t offset = 0; offset < buffer.size(); offset += n) {
    const std::size_t end = std::min(buffer.size(), offset + n);
    if (end - offset < n / 4) break;
    out.clear();
    lfbs::net::federation::ShardAssign assign;
    assign.sample_count = end - offset;
    lfbs::net::federation::encode_shard_assign(assign, out);
    for (std::size_t off = offset; off < end; off += kIqChunkSamples) {
      lfbs::runtime::SampleChunk chunk;
      chunk.first_sample = off - offset;
      const auto span = buffer.slice(off, std::min(end, off + kIqChunkSamples));
      chunk.samples.assign(span.begin(), span.end());
      lfbs::net::encode_iq_chunk(chunk, /*f64=*/true, out);
    }
    bytes += out.size();
    samples += end - offset;
  }
  return samples ? static_cast<double>(bytes) / static_cast<double>(samples)
                 : 0.0;
}

}  // namespace perfbench
