#include "net/federation/shard_worker.h"

#include <optional>
#include <vector>

#include "common/check.h"
#include "core/windowed_decoder.h"
#include "net/federation/shard_wire.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "signal/sample_buffer.h"

namespace lfbs::net::federation {

namespace {

core::WindowedDecoderConfig config_from_assign(const ShardAssign& assign) {
  core::WindowedDecoderConfig wc;
  wc.window = assign.window_seconds;
  wc.phase_tolerance = assign.phase_tolerance;
  wc.vector_tolerance = assign.vector_tolerance;
  wc.decoder.seed = assign.seed;
  wc.decoder.frame.payload_bits = assign.payload_bits;
  wc.decoder.frame.crc = static_cast<protocol::CrcKind>(assign.crc_kind);
  return wc;
}

}  // namespace

ShardWorker::ShardWorker(ShardWorkerConfig config)
    : config_(std::move(config)),
      listener_(config_.bind_address, config_.port) {}

std::size_t ShardWorker::serve() {
  static obs::Counter& windows_counter =
      obs::metrics().counter("federation.worker_windows");

  // Accept exactly one coordinator.
  FdHandle fd;
  while (!stop_.load(std::memory_order_relaxed)) {
    fd = listener_.accept();
    if (fd.valid()) break;
    std::vector<PollItem> items{{listener_.fd(), true, false}};
    poll_fds(items, 100);
  }
  if (!fd.valid()) return 0;
  TcpConnection conn(std::move(fd));

  MessageReader reader;
  bool greeted = false;
  std::size_t windows_decoded = 0;

  // Worker → coordinator messages are small (one window's streams), so a
  // blocking write cannot deadlock against the coordinator's much larger
  // IQ sends: the coordinator drains reads while it writes.
  const auto send = [&](const std::vector<std::uint8_t>& bytes) {
    if (!write_all(conn, bytes, &stop_)) {
      throw SocketError("coordinator closed mid-write");
    }
  };

  // In-flight assignment: decode fires once `received` reaches the
  // assign's declared sample count.
  std::optional<ShardAssign> pending;
  std::vector<Complex> samples;
  std::uint64_t received = 0;

  const auto decode_and_reply = [&] {
    const ShardAssign assign = *pending;
    pending.reset();
    const core::Window window{
        static_cast<std::size_t>(assign.window_index), assign.short_capture,
        signal::SampleBuffer(assign.sample_rate, std::move(samples))};
    samples = {};
    received = 0;
    ShardResult result;
    result.window_index = assign.window_index;
    result.short_capture = assign.short_capture;
    result.result =
        core::WindowedDecoder(config_from_assign(assign)).decode_window(window);
    std::vector<std::uint8_t> reply;
    encode_shard_result(result, reply);
    send(reply);
    ++windows_decoded;
    windows_counter.add();
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("federation",
                {obs::Field::str("action", "shard-decode"),
                 obs::Field::integer(
                     "window",
                     static_cast<std::int64_t>(assign.window_index)),
                 obs::Field::integer(
                     "streams",
                     static_cast<std::int64_t>(result.result.streams.size()))});
    }
  };

  std::uint8_t buf[65536];
  bool done = false;
  while (!done && !stop_.load(std::memory_order_relaxed)) {
    std::vector<PollItem> items{{conn.fd(), true, false}};
    poll_fds(items, 100);
    if (!items[0].readable && !items[0].error) continue;
    const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
    if (n == -1) continue;
    if (n == 0) break;  // coordinator gone; nothing left to reply to
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto message = reader.next()) {
      if (!greeted) {
        if (message->type != MsgType::kHello) {
          throw WireFormatError(WireError::kMalformed, "expected hello first");
        }
        const Hello hello = decode_hello(message->body);
        if (hello.role != PeerRole::kShardCoordinator) {
          throw WireFormatError(WireError::kMalformed,
                                "shard worker requires a coordinator peer");
        }
        greeted = true;
        std::vector<std::uint8_t> ack;
        encode_ack({0, config_.name}, ack);
        send(ack);
        continue;
      }
      switch (message->type) {
        case MsgType::kShardAssign: {
          if (pending.has_value()) {
            throw WireFormatError(WireError::kMalformed,
                                  "assign while a window is in flight");
          }
          pending = decode_shard_assign(message->body);
          samples.clear();
          samples.reserve(static_cast<std::size_t>(pending->sample_count));
          received = 0;
          if (pending->sample_count == 0) decode_and_reply();
          break;
        }
        case MsgType::kIqChunk: {
          if (!pending.has_value()) {
            throw WireFormatError(WireError::kMalformed,
                                  "IQ chunk without an assignment");
          }
          const runtime::SampleChunk chunk = decode_iq_chunk(message->body);
          // first_sample is the window-local offset; chunks arrive in
          // order, so it must equal what we have.
          if (chunk.first_sample != received) {
            throw WireFormatError(WireError::kMalformed,
                                  "out-of-order shard IQ chunk");
          }
          samples.insert(samples.end(), chunk.samples.begin(),
                         chunk.samples.end());
          received += chunk.samples.size();
          if (received > pending->sample_count) {
            throw WireFormatError(WireError::kMalformed,
                                  "more samples than the assign declared");
          }
          if (received == pending->sample_count) decode_and_reply();
          break;
        }
        case MsgType::kIqEnd: {
          // Session complete; acknowledge with a clean close.
          std::vector<std::uint8_t> bye;
          encode_bye({ByeReason::kEndOfStream, "shards complete"}, bye);
          send(bye);
          done = true;
          break;
        }
        case MsgType::kBye:
          done = true;
          break;
        default:
          throw WireFormatError(WireError::kMalformed,
                                "unexpected message from coordinator");
      }
      if (done) break;
    }
  }
  return windows_decoded;
}

}  // namespace lfbs::net::federation
