#include "net/federation/shard.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "common/check.h"
#include "net/federation/shard_wire.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::net::federation {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kIqChunkSamples = 1 << 16;

}  // namespace

/// One worker connection plus its in-flight bookkeeping.
struct ShardedDecoder::WorkerLink {
  TcpConnection conn;
  MessageReader reader;
  std::size_t index = 0;  ///< position in the pool, for accounting
  bool acked = false;
  bool got_bye = false;
  bool dead = false;  ///< failed over; conn closed, never touched again
  std::size_t assigned = 0;
  std::map<std::uint64_t, Clock::time_point> dispatched_at;
  Clock::time_point end_sent_at{};  ///< when kIqEnd went out (bye deadline)
  bool end_sent = false;

  explicit WorkerLink(TcpConnection connection)
      : conn(std::move(connection)) {}
};

ShardedDecoder::ShardedDecoder(ShardConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK_MSG(!config_.workers.empty(),
                 "sharded decode requires at least one worker");
  LFBS_CHECK(config_.windowed.window > 0.0);
}

ShardedDecoder::Result ShardedDecoder::run(runtime::SampleSource& source) {
  static obs::Counter& windows_counter =
      obs::metrics().counter("federation.shard_windows");
  static obs::HistogramMetric& latency_hist =
      obs::metrics().histogram("federation.shard_latency_ms");
  static obs::Counter& workers_lost_counter =
      obs::metrics().counter("net.failover_workers_lost");
  static obs::Counter& reassigned_counter =
      obs::metrics().counter("net.failover_windows_reassigned");
  static obs::Counter& budget_throttles_counter =
      obs::metrics().counter("net.shard_budget_throttles");

  const SampleRate fs = source.sample_rate();
  LFBS_CHECK_MSG(fs > 0.0, "sample source must declare a sample rate");
  const core::WindowedDecoder decoder(config_.windowed);
  const std::size_t window_samples = decoder.window_samples(fs);

  const auto t0 = Clock::now();

  // Results arrive in whatever order workers finish; the merge below
  // consumes them strictly by window index.
  std::map<std::uint64_t, ShardResult> results;
  runtime::LatencyRecorder latency;

  // --- pool connect + handshake ------------------------------------------
  // Deliberately strict, unlike the run itself: a pool that starts broken
  // is a configuration error, not a runtime fault to ride out.
  std::vector<std::unique_ptr<WorkerLink>> links;
  links.reserve(config_.workers.size());
  for (const auto& endpoint : config_.workers) {
    auto link = std::make_unique<WorkerLink>(TcpConnection::connect(
        endpoint.host, endpoint.port, config_.connect_timeout));
    link->index = links.size();
    std::vector<std::uint8_t> hello_bytes;
    Hello hello;
    hello.role = PeerRole::kShardCoordinator;
    hello.sample_rate = fs;
    hello.name = config_.name;
    encode_hello(hello, hello_bytes);
    if (!write_all(link->conn, hello_bytes)) {
      throw SocketError("shard worker closed during handshake");
    }
    links.push_back(std::move(link));
  }

  ShardStats stats;
  // Failover state: dispatched windows retained until their result lands,
  // so a dead worker's in-flight work can be replayed to a survivor, and
  // window indices harvested from dead links awaiting re-dispatch.
  std::map<std::uint64_t, core::Window> pending;
  std::deque<std::uint64_t> reassign_queue;

  // Budget accounting: every retained window's sample
  // bytes are charged against the shared pool while the window is in
  // flight and released when its result lands. The guard squares the
  // books on every exit path — including the throws below — so a failed
  // run never leaks its in-flight bytes into the gateway's pool.
  const auto pending_bytes = [](const core::Window& w) {
    return w.samples.size() * sizeof(Complex);
  };
  struct PendingBudgetGuard {
    ResourceBudget* budget;
    const std::map<std::uint64_t, core::Window>& pending;
    ~PendingBudgetGuard() {
      if (budget == nullptr) return;
      for (const auto& [index, w] : pending) {
        (void)index;
        budget->release(w.samples.size() * sizeof(Complex));
      }
    }
  } budget_guard{config_.budget, pending};

  // Declares a link dead: close it, harvest its outstanding windows into
  // the reassign queue, count the loss.
  const auto fail_link = [&](WorkerLink& link, const char* reason) {
    if (link.dead) return;
    link.dead = true;
    link.conn.close();
    ++stats.workers_lost;
    workers_lost_counter.add();
    for (const auto& [window_index, at] : link.dispatched_at) {
      (void)at;
      reassign_queue.push_back(window_index);
    }
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("federation",
                {obs::Field::str("action", "worker-lost"),
                 obs::Field::str("reason", reason),
                 obs::Field::integer("worker",
                                     static_cast<std::int64_t>(link.index)),
                 obs::Field::integer("outstanding",
                                     static_cast<std::int64_t>(
                                         link.dispatched_at.size()))});
    }
    link.dispatched_at.clear();
  };

  // Drains whatever a worker has sent, recording results. Called
  // opportunistically while writing (deadlock avoidance: a worker blocked
  // sending us a result must never stall our IQ send forever) and in the
  // final collection loop.
  const auto drain_incoming = [&](WorkerLink& link) {
    if (link.dead) return;
    for (;;) {
      std::uint8_t buf[65536];
      const std::ptrdiff_t n = link.conn.read_some(buf, sizeof(buf));
      if (n == -1) return;  // nothing pending
      if (n == 0) {
        if (!link.got_bye) fail_link(link, "died");
        return;
      }
      try {
        link.reader.feed(buf, static_cast<std::size_t>(n));
        while (auto message = link.reader.next()) {
          switch (message->type) {
            case MsgType::kAck:
              link.acked = true;
              break;
            case MsgType::kShardFrame: {
              ShardResult result = decode_shard_result(message->body);
              const auto it = link.dispatched_at.find(result.window_index);
              if (it != link.dispatched_at.end()) {
                const double ms =
                    std::chrono::duration<double, std::milli>(Clock::now() -
                                                              it->second)
                        .count();
                latency_hist.record(ms);
                latency.record(ms / 1e3);
                link.dispatched_at.erase(it);
              }
              const auto pit = pending.find(result.window_index);
              if (pit != pending.end()) {
                if (config_.budget != nullptr) {
                  config_.budget->release(pending_bytes(pit->second));
                }
                pending.erase(pit);
              }
              results.emplace(result.window_index, std::move(result));
              break;
            }
            case MsgType::kStats:
              break;  // informational; workers don't send these today
            case MsgType::kBye: {
              const Bye bye = decode_bye(message->body);
              link.got_bye = true;
              if (bye.reason != ByeReason::kEndOfStream) {
                fail_link(link, "refused");
                return;
              }
              break;
            }
            default:
              throw WireFormatError(WireError::kMalformed,
                                    "unexpected message from shard worker");
          }
        }
      } catch (const WireFormatError&) {
        // A worker speaking garbage is as lost as a dead one: its results
        // cannot be trusted past this point.
        fail_link(link, "garbage");
        return;
      }
    }
  };

  // Deadline sweep: a link whose oldest in-flight window
  // (or pending Bye) is older than worker_deadline is wedged — fail it so
  // its work moves to the survivors instead of stalling the run.
  const auto check_deadlines = [&] {
    const auto now = Clock::now();
    const auto deadline =
        std::chrono::duration<double>(config_.worker_deadline);
    for (auto& link : links) {
      if (link->dead) continue;
      bool overdue = false;
      for (const auto& [window_index, at] : link->dispatched_at) {
        (void)window_index;
        if (now - at > deadline) {
          overdue = true;
          break;
        }
      }
      if (!overdue && link->end_sent && !link->got_bye &&
          now - link->end_sent_at > deadline) {
        overdue = true;
      }
      if (overdue) fail_link(*link, "deadline");
    }
  };

  // Fully writes `bytes` to a worker, draining every link's reads while
  // the send buffer is full. False when the link died under the write (its
  // outstanding windows are already queued for reassignment).
  const auto send_all = [&](WorkerLink& link,
                            const std::vector<std::uint8_t>& bytes) -> bool {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      if (link.dead) return false;
      const std::ptrdiff_t n =
          link.conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) {
        fail_link(link, "died mid-send");
        return false;
      }
      std::vector<PollItem> items{{link.conn.fd(), true, true}};
      poll_fds(items, 100);
      for (auto& other : links) drain_incoming(*other);
      check_deadlines();
    }
    return true;
  };

  // Encodes one assignment (+ its f64 IQ) and writes it to `link`.
  const auto transmit = [&](WorkerLink& link, const core::Window& window) {
    const std::uint64_t window_index = window.index;
    const std::span<const Complex> samples = window.samples.span();
    ShardAssign assign;
    assign.window_index = window_index;
    assign.short_capture = window.whole_capture;
    assign.sample_count = samples.size();
    assign.sample_rate = fs;
    assign.window_seconds = config_.windowed.window;
    assign.phase_tolerance = config_.windowed.phase_tolerance;
    assign.vector_tolerance = config_.windowed.vector_tolerance;
    assign.seed = config_.windowed.decoder.seed;
    assign.payload_bits = static_cast<std::uint32_t>(
        config_.windowed.decoder.frame.payload_bits);
    assign.crc_kind =
        static_cast<std::uint8_t>(config_.windowed.decoder.frame.crc);
    std::vector<std::uint8_t> bytes;
    encode_shard_assign(assign, bytes);
    // The window's samples, window-local offsets, always f64: the worker
    // must decode the coordinator's exact bit patterns.
    for (std::size_t off = 0; off < samples.size(); off += kIqChunkSamples) {
      const std::size_t take =
          std::min(kIqChunkSamples, samples.size() - off);
      runtime::SampleChunk chunk;
      chunk.first_sample = off;
      chunk.samples.assign(samples.begin() + static_cast<std::ptrdiff_t>(off),
                           samples.begin() +
                               static_cast<std::ptrdiff_t>(off + take));
      encode_iq_chunk(chunk, /*f64=*/true, bytes);
    }
    // Bookkeep before the write: if the link dies mid-send, fail_link
    // harvests this window into the reassign queue with the rest.
    link.dispatched_at.emplace(window_index, Clock::now());
    ++link.assigned;
    if (!send_all(link, bytes)) return;
    drain_incoming(link);
  };

  // Round-robin over the surviving links, nullptr when none remain.
  std::size_t rr_cursor = 0;
  const auto pick_alive = [&]() -> WorkerLink* {
    for (std::size_t tries = 0; tries < links.size(); ++tries) {
      WorkerLink* link = links[rr_cursor++ % links.size()].get();
      if (!link->dead) return link;
    }
    return nullptr;
  };

  // Re-dispatches windows harvested from dead links. Each iteration either
  // lands a window on a survivor or kills another link, so it terminates;
  // zero survivors with work outstanding is the loud failure.
  const auto pump_reassign = [&] {
    while (!reassign_queue.empty()) {
      const std::uint64_t window_index = reassign_queue.front();
      reassign_queue.pop_front();
      if (results.find(window_index) != results.end()) continue;
      const auto it = pending.find(window_index);
      if (it == pending.end()) continue;  // result landed before the death
      WorkerLink* target = pick_alive();
      if (target == nullptr) {
        throw SocketError("shard failover: no workers left (window " +
                          std::to_string(window_index) + " outstanding)");
      }
      ++stats.windows_reassigned;
      reassigned_counter.add();
      if (obs::EventLog* log = obs::event_log()) {
        log->emit("federation",
                  {obs::Field::str("action", "reassign"),
                   obs::Field::integer(
                       "window", static_cast<std::int64_t>(window_index)),
                   obs::Field::integer(
                       "worker", static_cast<std::int64_t>(target->index))});
      }
      transmit(*target, it->second);
    }
  };

  // Dispatches one window (or the short-capture whole buffer) to a worker.
  const auto dispatch = [&](core::Window window) {
    const std::uint64_t window_index = window.index;
    ++stats.windows_assigned;
    windows_counter.add();
    WorkerLink* link =
        links[static_cast<std::size_t>(window_index) % links.size()].get();
    if (link->dead) link = pick_alive();
    if (link == nullptr) {
      throw SocketError("shard failover: no workers left to assign window " +
                        std::to_string(window_index));
    }
    const std::size_t bytes = pending_bytes(window);
    if (config_.budget != nullptr && bytes > 0) {
      // Bounded saturation throttle: while the shared pool is full,
      // drain results (a landing result frees its window's bytes)
      // instead of growing the overshoot. Past the deadline charge
      // unconditionally — dispatch must make progress even when the
      // gateway's subscribers hold the pool at its limit, and the
      // overshoot is bounded by one window.
      bool charged = config_.budget->try_charge(bytes);
      if (!charged) {
        budget_throttles_counter.add();
        const auto throttle_deadline = Clock::now() + std::chrono::seconds(2);
        while (!charged && Clock::now() < throttle_deadline) {
          std::vector<PollItem> items;
          for (const auto& l : links) {
            if (!l->dead) items.push_back({l->conn.fd(), true, false});
          }
          if (items.empty()) break;
          poll_fds(items, 50);
          for (auto& l : links) drain_incoming(*l);
          check_deadlines();
          charged = config_.budget->try_charge(bytes);
        }
        if (!charged) config_.budget->charge(bytes);
      }
    }
    const auto it = pending.emplace(window_index, std::move(window)).first;
    transmit(*link, it->second);
    pump_reassign();
  };

  // --- slicing: the decoder's window lattice ------------------------------
  core::WindowAssembler assembler(
      decoder, fs, [&](core::Window window) { dispatch(std::move(window)); });
  while (auto chunk = source.next_chunk()) {
    assembler.push(chunk->first_sample, chunk->samples);
  }
  const std::uint64_t expected_windows = assembler.finish();
  stats.samples_in = assembler.samples_in();

  // --- end of input: collect every window, then close the links ----------
  // iq_end is deferred until every result is in hand: a survivor may still
  // be needed to take over a dead worker's outstanding windows.
  pump_reassign();
  while (results.size() < expected_windows) {
    std::vector<PollItem> items;
    for (const auto& link : links) {
      if (!link->dead) items.push_back({link->conn.fd(), true, false});
    }
    if (items.empty()) {
      throw SocketError(
          "shard failover: no workers left with " +
          std::to_string(expected_windows - results.size()) +
          " window(s) outstanding");
    }
    poll_fds(items, 250);
    for (auto& link : links) drain_incoming(*link);
    check_deadlines();
    pump_reassign();
  }
  for (auto& link : links) {
    if (link->dead) continue;
    std::vector<std::uint8_t> end_bytes;
    encode_iq_end({0, false}, end_bytes);
    link->end_sent = true;
    link->end_sent_at = Clock::now();
    send_all(*link, end_bytes);
  }
  while (std::any_of(links.begin(), links.end(), [](const auto& l) {
    return !l->dead && !l->got_bye;
  })) {
    std::vector<PollItem> items;
    for (const auto& link : links) {
      if (!link->dead && !link->got_bye) {
        items.push_back({link->conn.fd(), true, false});
      }
    }
    poll_fds(items, 250);
    for (auto& link : links) {
      if (!link->dead && !link->got_bye) drain_incoming(*link);
    }
    check_deadlines();
  }

  // Strict completeness: every window must have come back.
  LFBS_CHECK_MSG(results.size() == expected_windows,
                 "sharded decode is missing window results");

  // --- merge: the same in-order stitch as the runtime ---------------------
  Result out;
  core::WindowStitcher stitcher(config_.windowed, fs);
  for (std::uint64_t index = 0; index < expected_windows; ++index) {
    const auto it = results.find(index);
    LFBS_CHECK_MSG(it != results.end(), "sharded decode is missing a window");
    stitcher.add(static_cast<std::size_t>(index), it->second.short_capture,
                 std::move(it->second.result));
  }
  out.decode = stitcher.finish();

  stats.windows_decoded = results.size();
  stats.frames_published = runtime::publish_frames(
      bus_, out.decode, config_.epoch_index, window_samples);
  stats.streams = out.decode.streams.size();
  stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  runtime::RuntimeStats latency_digest;
  latency.summarize(latency_digest);
  stats.shard_latency_p50_ms = latency_digest.window_latency_p50_ms;
  stats.shard_latency_p99_ms = latency_digest.window_latency_p99_ms;
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("federation",
              {obs::Field::str("action", "shard-run"),
               obs::Field::integer(
                   "windows", static_cast<std::int64_t>(stats.windows_decoded)),
               obs::Field::integer(
                   "workers", static_cast<std::int64_t>(links.size())),
               obs::Field::integer(
                   "frames",
                   static_cast<std::int64_t>(stats.frames_published)),
               obs::Field::num("latency_p99_ms", stats.shard_latency_p99_ms)});
  }
  out.stats = stats;
  return out;
}

}  // namespace lfbs::net::federation
