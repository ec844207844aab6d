// Workload `fanout`: a relay gateway re-publishing a decoded-frame stream.
// One publisher thread calls FrameServer::publish; two FrameClient
// subscribers on their own threads receive over loopback TCP. No decoding
// runs: wire encode, the per-client queues, the server's poll loop and the
// client decode do all the work — many small LFBW1 messages, where the
// `stream` workload's shard path moves bulk IQ over the same wire layer.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/wire.h"

namespace perfbench {

using namespace lfbs;

namespace {

constexpr std::size_t kSubscribers = 2;
constexpr std::size_t kPayloads = 4096;
constexpr std::size_t kQueueMessages = 8192;
/// Closed loop: the publisher keeps at most this many frames in flight past
/// the slowest subscriber — well inside the per-client queue, so a healthy
/// server never has to drop.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kClosedRoundFrames = 20000;
/// Burst: frames published back to back as fast as publish() returns, half
/// a per-client queue at a time, so the server batches them onto the
/// sockets and never has to drop.
constexpr std::size_t kBurstFrames = kQueueMessages / 2;
constexpr std::size_t kSerialRoundFrames = 20000;
/// Open loop: frames due at a fixed rate, whatever the system does. Each
/// frame travels alone (no batching as in the closed loop), which costs a
/// wake-up per frame per thread; 5 kframes/s stays well below what this
/// path sustains even when a shared host is slow.
constexpr double kOpenRate = 5e3;
constexpr std::size_t kOpenSlices = 10;
/// How long to wait for a frame that should already have arrived.
constexpr Seconds kDeliveryTimeout = 5.0;

/// What one subscriber saw in the current phase. Written only by that
/// subscriber's thread; read by the publisher after `received` says the
/// phase is complete (release/acquire on `received`).
struct Sink {
  std::vector<std::uint8_t> seen;   ///< deliveries per sequence number
  std::vector<double> arrival_s;    ///< now_s() at on_frame
  std::atomic<std::size_t> received{0};
  std::size_t corrupted = 0;
};

/// One phase of frames, identified on the wire by its epoch index.
struct Phase {
  std::uint64_t epoch = 0;
  std::array<Sink, kSubscribers> sinks;
  explicit Phase(std::uint64_t e, std::size_t frames) : epoch(e) {
    for (Sink& s : sinks) {
      s.seen.assign(frames, 0);
      s.arrival_s.assign(frames, 0.0);
    }
  }
};

runtime::FrameEvent make_event(const std::vector<std::vector<bool>>& payloads,
                               std::uint64_t epoch, std::uint64_t seq) {
  runtime::FrameEvent e;
  e.stream_start = 1234.5;
  e.rate = 100.0 * kKbps;
  e.epoch_index = epoch;
  e.window_index = seq;
  e.frame_index = seq % kPayloads;
  e.frame.payload = payloads[seq % kPayloads];
  e.frame.anchor_ok = true;
  e.frame.crc_ok = true;
  return e;
}

/// The server, its two subscriber threads and the sink routing.
class Gateway {
 public:
  explicit Gateway(const std::vector<std::vector<bool>>& payloads)
      : payloads_(payloads), server_([] {
          // Deep enough to ride out a long subscriber stall on a busy
          // host; a drop still counts as failed.
          net::FrameServerConfig sc;
          sc.send_queue_messages = kQueueMessages;
          return sc;
        }()) {
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      net::FrameClientConfig cc;
      cc.port = server_.port();
      cc.name = "perfbench-sub-" + std::to_string(i);
      clients_[i] = std::make_unique<net::FrameClient>(cc);
    }
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      threads_[i] = std::thread([this, i] { serve(i); });
    }
    while (server_.counters().subscribers < kSubscribers) {
      std::this_thread::yield();
    }
  }
  ~Gateway() {
    server_.shutdown(/*drain=*/true);
    for (auto& t : threads_) t.join();
  }
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  net::FrameServer& server() { return server_; }
  /// Points the subscribers at `phase`; with nullptr, also waits until no
  /// callback still holds the previous phase, so the caller may free it.
  void route_to(Phase* phase) {
    phase_.store(phase);
    while (phase == nullptr && in_callback_.load() > 0) {
      std::this_thread::yield();
    }
  }
  /// CPU seconds subscriber `i`'s thread has used so far.
  double client_cpu_s(std::size_t i) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(threads_[i].native_handle(), &clock) != 0 ||
        clock_gettime(clock, &ts) != 0) {
      return 0.0;
    }
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  std::size_t strays() const { return strays_.load(); }
  const std::string& error(std::size_t i) const { return errors_[i]; }

 private:
  void serve(std::size_t i) {
    net::FrameClient::Callbacks callbacks;
    callbacks.on_frame = [this, i](const runtime::FrameEvent& e) {
      obs::Span span(obs::tracer(), "on_frame", kBenchCategory);
      const double now = now_s();
      ++in_callback_;
      Phase* phase = phase_.load();
      if (phase == nullptr || e.epoch_index != phase->epoch ||
          e.window_index >= phase->sinks[i].seen.size()) {
        ++strays_;
        --in_callback_;
        return;
      }
      Sink& sink = phase->sinks[i];
      const std::uint64_t seq = e.window_index;
      if (e.frame.payload != payloads_[seq % kPayloads] ||
          e.frame_index != seq % kPayloads || !e.frame.valid()) {
        ++sink.corrupted;
      }
      if (sink.seen[seq]++ == 0) sink.arrival_s[seq] = now;
      sink.received.fetch_add(1, std::memory_order_release);
      --in_callback_;
    };
    try {
      clients_[i]->run(callbacks);
    } catch (const std::exception& e) {
      errors_[i] = e.what();
    }
  }

  const std::vector<std::vector<bool>>& payloads_;
  net::FrameServer server_;
  std::array<std::unique_ptr<net::FrameClient>, kSubscribers> clients_;
  std::atomic<Phase*> phase_{nullptr};
  std::atomic<int> in_callback_{0};
  std::atomic<std::size_t> strays_{0};
  std::array<std::string, kSubscribers> errors_;
  std::array<std::thread, kSubscribers> threads_;
};

std::size_t slowest(const Phase& phase) {
  std::size_t n = phase.sinks[0].received.load(std::memory_order_acquire);
  for (const Sink& s : phase.sinks) {
    n = std::min(n, s.received.load(std::memory_order_acquire));
  }
  return n;
}

/// Waits until every subscriber has `frames` deliveries; false when that
/// does not happen within the timeout (a lost frame never arrives). Naps
/// rather than spins, so the publisher does not take a core from the
/// server and subscriber threads it is waiting on.
bool await_delivery(const Phase& phase, std::size_t frames) {
  const double deadline = now_s() + kDeliveryTimeout;
  while (slowest(phase) < frames) {
    if (now_s() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

/// Tallies one finished phase into the run's accounting.
void settle(const Phase& phase, std::size_t frames, Result& out,
            std::size_t& delivered_once) {
  for (const Sink& sink : phase.sinks) {
    out.attempted += frames;
    for (std::size_t seq = 0; seq < frames; ++seq) {
      if (sink.seen[seq] == 1) {
        ++delivered_once;
      } else {
        ++out.failed;
        if (sink.seen[seq] > 1) {
          out.diverged("frame " + std::to_string(seq) + " of phase " +
                       std::to_string(phase.epoch) + " delivered " +
                       std::to_string(sink.seen[seq]) + " times");
        }
      }
    }
    if (sink.corrupted > 0) {
      out.diverged(std::to_string(sink.corrupted) +
                   " frames arrived with a wrong payload or identity");
    }
  }
}

}  // namespace

void run_fanout(const Options& opt, Result& out) {
  Rng rng(opt.seed);
  std::vector<std::vector<bool>> payloads;
  Digest digest;
  for (std::size_t i = 0; i < kPayloads; ++i) {
    payloads.push_back(rng.bits(96));
    for (const bool b : payloads.back()) digest.add_u64(b);
  }
  out.digest = digest.hex();

  // Bring-up is timed on throwaway gateways between rounds.
  const auto make_gateway = [&] { return std::make_unique<Gateway>(payloads); };
  SetupSampler setup(make_gateway);
  setup.sample();
  std::unique_ptr<Gateway> gw = make_gateway();

  obs::Tracer tracer(obs::TracerConfig{std::size_t{1} << 20});
  SpanStore store;
  std::uint64_t next_epoch = 1;
  std::size_t delivered_once = 0;

  std::vector<double> serial_kps, closed_kps, traced_kps, burst_kps;
  double publish_cpu_s = 0.0, client_cpu_s = 0.0;
  std::size_t cpu_frames = 0;

  // Codec baseline: the same frames through the LFBW1 codec (encode,
  // de-frame, decode) on one thread, with no queue, socket or thread.
  const auto codec_round = [&] {
    std::vector<std::uint8_t> bytes;
    net::MessageReader reader;
    const double t0 = now_s();
    for (std::size_t seq = 0; seq < kSerialRoundFrames; ++seq) {
      bytes.clear();
      net::encode_frame(make_event(payloads, 0, seq), bytes);
      reader.feed(bytes.data(), bytes.size());
      const auto msg = reader.next();
      const runtime::FrameEvent e =
          msg ? net::decode_frame(msg->body) : runtime::FrameEvent{};
      if (!msg || e.window_index != seq ||
          e.frame.payload != payloads[seq % kPayloads]) {
        out.diverged("LFBW1 codec round trip changed frame " +
                     std::to_string(seq));
        return;
      }
    }
    serial_kps.push_back(static_cast<double>(kSerialRoundFrames) /
                         (now_s() - t0) / 1e3);
  };

  // Closed loop: publish as fast as the slowest subscriber drains, at
  // most kWindow frames in flight.
  const auto closed_round = [&](bool traced) {
    Phase phase(next_epoch++, kClosedRoundFrames);
    gw->route_to(&phase);
    double clients_before = 0.0;
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      clients_before += gw->client_cpu_s(i);
    }
    if (traced) obs::set_tracer(&tracer);
    const double t0 = now_s();
    for (std::size_t seq = 0; seq < kClosedRoundFrames; ++seq) {
      if (seq >= kWindow && !await_delivery(phase, seq - kWindow + 1)) break;
      const runtime::FrameEvent e = make_event(payloads, phase.epoch, seq);
      const double c0 = opt.trace ? thread_cpu_s() : 0.0;
      {
        obs::Span span(obs::tracer(), "publish", kBenchCategory);
        gw->server().publish(e);
      }
      if (opt.trace) publish_cpu_s += thread_cpu_s() - c0;
    }
    await_delivery(phase, kClosedRoundFrames);
    const double t1 = now_s();
    if (traced) {
      obs::set_tracer(nullptr);
      store.drain(tracer);
    }
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      client_cpu_s += gw->client_cpu_s(i);
    }
    client_cpu_s -= clients_before;
    cpu_frames += kClosedRoundFrames;
    gw->route_to(nullptr);
    (traced ? traced_kps : closed_kps)
        .push_back(static_cast<double>(kClosedRoundFrames) / (t1 - t0) / 1e3);
    settle(phase, kClosedRoundFrames, out, delivered_once);
  };

  // Burst: kBurstFrames published without waiting, timed until the
  // slowest subscriber holds all of them.
  const auto burst_round = [&] {
    Phase phase(next_epoch++, kBurstFrames);
    gw->route_to(&phase);
    const double t0 = now_s();
    for (std::size_t seq = 0; seq < kBurstFrames; ++seq) {
      gw->server().publish(make_event(payloads, phase.epoch, seq));
    }
    await_delivery(phase, kBurstFrames);
    burst_kps.push_back(static_cast<double>(kBurstFrames) / (now_s() - t0) /
                        1e3);
    gw->route_to(nullptr);
    settle(phase, kBurstFrames, out, delivered_once);
  };

  // One round of each per cycle, so every rate's median samples the same
  // stretch of the run: this class of shared host drifts in speed over
  // seconds, and a phase of its own would catch only its own stretch.
  const double cycles_end = now_s() + 0.65 * opt.seconds;
  for (std::size_t cycle = 0; cycle < 2 || now_s() < cycles_end; ++cycle) {
    setup.sample();
    codec_round();
    if (!out.correct) break;
    closed_round(opt.trace && cycle % 2 == 1);
    burst_round();
  }

  // Open loop at a fixed rate, each frame timed from its due
  // time; the generator's own lateness is reported beside it.
  const auto open_frames = static_cast<std::size_t>(
      std::max(1.0, 0.35 * opt.seconds) * kOpenRate);
  Phase open(next_epoch++, open_frames);
  gw->route_to(&open);
  std::vector<double> lateness_ms;
  lateness_ms.reserve(open_frames);
  const double t0 = now_s() + 0.01;
  for (std::size_t seq = 0; seq < open_frames; ++seq) {
    const double due = t0 + static_cast<double>(seq) / kOpenRate;
    // Sleep through most of the gap and spin only its last stretch, so the
    // generator leaves the cores to the threads it is measuring.
    double now = now_s();
    if (due - now > 100e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - now - 60e-6));
    }
    while ((now = now_s()) < due) std::this_thread::yield();
    lateness_ms.push_back((now - due) * 1e3);
    gw->server().publish(make_event(payloads, open.epoch, seq));
  }
  await_delivery(open, open_frames);
  gw->route_to(nullptr);
  // Percentiles per slice of the open loop, then their median: one burst
  // of host interference moves one slice, not the run's figure.
  std::vector<double> latency_ms, slice_p50, slice_p90;
  latency_ms.reserve(open_frames * kSubscribers);
  for (std::size_t k = 0; k < kOpenSlices; ++k) {
    std::vector<double> slice;
    for (const Sink& sink : open.sinks) {
      for (std::size_t seq = k * open_frames / kOpenSlices;
           seq < (k + 1) * open_frames / kOpenSlices; ++seq) {
        if (sink.seen[seq] == 0) continue;
        const double due = t0 + static_cast<double>(seq) / kOpenRate;
        slice.push_back((sink.arrival_s[seq] - due) * 1e3);
      }
    }
    slice_p50.push_back(quantile(slice, 0.5));
    slice_p90.push_back(quantile(slice, 0.9));
    latency_ms.insert(latency_ms.end(), slice.begin(), slice.end());
  }
  settle(open, open_frames, out, delivered_once);

  const net::FrameServer::Counters counters = gw->server().counters();
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    if (!gw->error(i).empty()) {
      out.notes.push_back("subscriber " + std::to_string(i) +
                          " failed: " + gw->error(i));
    }
  }
  if (gw->strays() > 0) {
    out.notes.push_back(std::to_string(gw->strays()) +
                        " frames arrived outside their phase");
  }
  gw.reset();

  const double closed = median(closed_kps);
  out.e2e("setup_s", setup.median_s(), "s");
  out.e2e("serial_kps", median(serial_kps), "k/s");
  out.e2e("throughput_kps", closed, "k/s");
  out.e2e("socket_kps", median(burst_kps), "k/s");
  out.e2e("latency_p50_ms", median(slice_p50), "ms");
  const double delivered =
      static_cast<double>(delivered_once) /
      static_cast<double>(std::max<std::uint64_t>(1, out.attempted));
  out.info("setup_samples", static_cast<double>(setup.count()), "count");
  out.info("frame_recovery", delivered, "fraction");
  out.layer("core.frame_recovery", delivered, "fraction");

  out.info("fanout_kfps", closed, "kframe/s");
  out.info("burst_kfps", median(burst_kps), "kframe/s");
  out.info("delivery_latency_p50_ms", median(slice_p50), "ms");
  out.info("delivery_latency_p90_ms", median(slice_p90), "ms");
  out.info("delivery_latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  out.info("delivery_latency_samples", static_cast<double>(latency_ms.size()),
           "count");
  out.info("open_loop_rate_kfps", kOpenRate / 1e3, "kframe/s");
  out.info("generator_late_ms_p50", quantile(lateness_ms, 0.5), "ms");
  out.info("generator_late_ms_p99", quantile(lateness_ms, 0.99), "ms");

  if (opt.trace) {
    span_layer_metrics(store, 0.0, 0, out);
    out.layer("net.publish_us_per_frame",
              cpu_frames ? publish_cpu_s / static_cast<double>(cpu_frames) * 1e6
                         : 0.0,
              "us");
    out.layer("net.receive_us_per_frame",
              cpu_frames ? client_cpu_s /
                               static_cast<double>(cpu_frames * kSubscribers) *
                               1e6
                         : 0.0,
              "us");
    out.layer("net.queue_drops", static_cast<double>(counters.queue_drops),
              "count");
    out.layer("net.queue_bytes_peak",
              static_cast<double>(counters.queue_bytes_peak), "B");
    out.layer("net.generator_late_ms_p99", quantile(lateness_ms, 0.99), "ms");
    const double plain = median(closed_kps), with = median(traced_kps);
    out.layer("trace_overhead_pct",
              with > 0.0 ? (plain / with - 1.0) * 100.0 : 0.0, "%");
  }
}

}  // namespace perfbench
