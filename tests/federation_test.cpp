// Tests for gateway federation (src/net/federation): frame identity and
// its dedup semantics, the relay's layered loop safety (origin check →
// hop limit → identity dedup) across real TCP topologies — chain, cycle,
// diamond — and the cross-process sharded decode path, whose output must
// be bit-identical to the serial WindowedDecoder on the same capture.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "channel/channel_model.h"
#include "channel/noise.h"
#include "core/windowed_decoder.h"
#include "net/federation/relay.h"
#include "net/federation/shard.h"
#include "net/federation/shard_worker.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "runtime/frame_bus.h"
#include "runtime/runtime.h"
#include "runtime/sample_source.h"
#include "tag/tag.h"

namespace lfbs::net::federation {
namespace {

/// A frame event as a gateway would first publish it: origin unset (the
/// server stamps it), zero hops, full identity coordinates.
runtime::FrameEvent make_event(std::uint64_t seed) {
  Rng rng(seed);
  runtime::FrameEvent event;
  event.stream_index = static_cast<std::size_t>(seed % 7);
  event.stream_start = rng.uniform(0.0, 1e6);
  event.rate = rng.uniform(1e3, 250e3);
  event.collided = (seed % 2) == 0;
  event.confidence = rng.uniform(0.0, 1.0);
  event.frame.payload = rng.bits(96);
  event.frame.anchor_ok = true;
  event.frame.crc_ok = true;
  event.epoch_index = seed / 5;
  event.window_index = seed % 5;
  event.frame_index = seed % 3;
  return event;
}

// --- frame identity ------------------------------------------------------

TEST(FrameIdentity, KeyExcludesTheRelayHeader) {
  const runtime::FrameEvent event = make_event(42);
  const std::uint64_t key = runtime::frame_identity(event).key();

  // origin and hops mutate per hop; identity must not move with them.
  runtime::FrameEvent hopped = event;
  hopped.origin = 9;
  hopped.hops = 3;
  EXPECT_EQ(runtime::frame_identity(hopped).key(), key);
}

TEST(FrameIdentity, KeyDiscriminatesEveryIdentityCoordinate) {
  const runtime::FrameEvent event = make_event(42);
  const std::uint64_t key = runtime::frame_identity(event).key();

  runtime::FrameEvent other = event;
  other.epoch_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.window_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.frame_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.stream_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.frame.payload[13] = !other.frame.payload[13];
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  // payload_key covers both content and length.
  protocol::ParsedFrame a = event.frame;
  protocol::ParsedFrame b = event.frame;
  EXPECT_EQ(protocol::payload_key(a), protocol::payload_key(b));
  b.payload.push_back(false);
  EXPECT_NE(protocol::payload_key(a), protocol::payload_key(b));
}

TEST(FrameIdentity, KeySurvivesTheWire) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    runtime::FrameEvent event = make_event(seed);
    event.origin = seed;  // wire carries the relay header too
    event.hops = 2;
    const std::uint64_t key = runtime::frame_identity(event).key();
    std::vector<std::uint8_t> bytes;
    encode_frame(event, bytes);
    MessageReader reader;
    reader.feed(bytes.data(), bytes.size());
    const auto message = reader.next();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(runtime::frame_identity(decode_frame(message->body)).key(), key)
        << "identity must be stable across a TCP hop";
  }
}

TEST(FrameDeduper, DedupsAndAgesFifo) {
  FrameDeduper dedup(4);
  EXPECT_TRUE(dedup.insert(1));
  EXPECT_FALSE(dedup.insert(1));
  EXPECT_TRUE(dedup.insert(2));
  EXPECT_TRUE(dedup.insert(3));
  EXPECT_TRUE(dedup.insert(4));
  EXPECT_EQ(dedup.size(), 4u);
  EXPECT_TRUE(dedup.insert(5));  // ages key 1 out
  EXPECT_EQ(dedup.size(), 4u);
  EXPECT_TRUE(dedup.insert(1));  // forgotten, so new again
  EXPECT_FALSE(dedup.insert(5));
}

// --- relay topologies ----------------------------------------------------

/// Tails a FrameServer on its own thread, collecting every event.
struct Collector {
  FrameClient client;
  std::thread thread;
  std::vector<runtime::FrameEvent> events;
  std::optional<Bye> bye;

  static FrameClientConfig collector_config(std::uint16_t port) {
    FrameClientConfig cc;
    cc.port = port;
    cc.name = "collector";
    return cc;
  }

  explicit Collector(std::uint16_t port) : client(collector_config(port)) {
    thread = std::thread([this] {
      FrameClient::Callbacks callbacks;
      callbacks.on_frame = [this](const runtime::FrameEvent& event) {
        events.push_back(event);
      };
      bye = client.run(callbacks);
    });
  }
  void join() { thread.join(); }
};

bool wait_subscribers(const FrameServer& server, std::size_t count,
                      Seconds timeout = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(timeout);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server.counters().subscribers >= count) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(FrameRelay, ChainRelaysBitIdenticalWithHopIncrement) {
  // source gateway (origin 1) → relay (gateway 2) → subscriber.
  FrameServerConfig source_config;
  source_config.origin_id = 1;
  FrameServer source(source_config);

  FrameServerConfig relay_server_config;
  FrameServer relay_server(relay_server_config);
  RelayConfig rc;
  rc.gateway_id = 2;
  rc.upstreams = {{"127.0.0.1", source.port()}};
  FrameRelay relay(rc, relay_server);
  relay.start();

  Collector collector(relay_server.port());
  ASSERT_TRUE(wait_subscribers(source, 1));
  ASSERT_TRUE(wait_subscribers(relay_server, 1));

  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 32; ++i) {
    sent.push_back(make_event(i));
    source.publish(sent.back());
  }
  source.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay.join()) << "upstream must end with Bye(kEndOfStream)";
  relay_server.shutdown(/*drain=*/true);
  collector.join();

  ASSERT_EQ(collector.events.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto& got = collector.events[i];
    EXPECT_EQ(got.origin, 1u) << "origin survives the relay hop";
    EXPECT_EQ(got.hops, 1u) << "the relay increments hops";
    EXPECT_EQ(got.frame.payload, sent[i].frame.payload);
    EXPECT_EQ(got.stream_start, sent[i].stream_start);  // bit-exact
    EXPECT_EQ(runtime::frame_identity(got).key(),
              runtime::frame_identity(sent[i]).key());
  }
  const auto counters = relay.counters();
  EXPECT_EQ(counters.relayed, sent.size());
  EXPECT_EQ(counters.dup_drops, 0u);
  EXPECT_EQ(counters.loop_drops, 0u);
  EXPECT_EQ(counters.hop_drops, 0u);
}

TEST(FrameRelay, CycleDeliversEachFrameExactlyOnce) {
  // R1 (gateway 2, serves A) ⇄ R2 (gateway 3, serves B): each relays the
  // other's server — a true 2-hop loop. Frames injected at R1 must reach
  // a subscriber of B exactly once, and the copies R2 sends back around
  // the cycle must die at R1's origin check.
  FrameServer server_a{FrameServerConfig{}};
  FrameServer server_b{FrameServerConfig{}};

  RelayConfig c1;
  c1.gateway_id = 2;
  c1.name = "relay-1";
  c1.upstreams = {{"127.0.0.1", server_b.port()}};
  FrameRelay relay_1(c1, server_a);

  RelayConfig c2;
  c2.gateway_id = 3;
  c2.name = "relay-2";
  c2.upstreams = {{"127.0.0.1", server_a.port()}};
  FrameRelay relay_2(c2, server_b);

  relay_1.start();
  relay_2.start();
  Collector collector(server_b.port());
  ASSERT_TRUE(wait_subscribers(server_a, 1));  // relay_2's link
  ASSERT_TRUE(wait_subscribers(server_b, 2));  // relay_1's link + collector

  constexpr std::size_t kFrames = 24;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    relay_1.publish_local(make_event(i));
  }

  // The loop is live until every injected frame has come back around and
  // died at R1's origin check.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (relay_1.counters().loop_drops < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server_a.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay_2.join());
  server_b.shutdown(/*drain=*/true);
  relay_1.join();
  collector.join();

  // Exactly once: every frame, no duplicates, by identity key.
  ASSERT_EQ(collector.events.size(), kFrames);
  std::set<std::uint64_t> keys;
  for (const auto& event : collector.events) {
    EXPECT_EQ(event.origin, 2u);
    EXPECT_EQ(event.hops, 1u);
    keys.insert(runtime::frame_identity(event).key());
  }
  EXPECT_EQ(keys.size(), kFrames) << "duplicates crossed the cycle";

  const auto r1 = relay_1.counters();
  const auto r2 = relay_2.counters();
  EXPECT_EQ(r1.local_published, kFrames);
  EXPECT_EQ(r2.relayed, kFrames);
  EXPECT_EQ(r1.loop_drops, kFrames)
      << "every frame must come back around and die at the origin check";
  EXPECT_EQ(r1.relayed, 0u);
}

TEST(FrameRelay, DiamondDedupDropsTheSecondCopy) {
  // top → {left, right} → bottom: the bottom relay hears every frame
  // twice with the same identity and must forward exactly one copy,
  // counting the other as a dup drop.
  FrameServerConfig top_config;
  top_config.origin_id = 1;
  FrameServer top(top_config);
  FrameServer server_l{FrameServerConfig{}};
  FrameServer server_r{FrameServerConfig{}};
  FrameServer server_b{FrameServerConfig{}};

  RelayConfig cl;
  cl.gateway_id = 2;
  cl.upstreams = {{"127.0.0.1", top.port()}};
  FrameRelay left(cl, server_l);
  RelayConfig cr;
  cr.gateway_id = 3;
  cr.upstreams = {{"127.0.0.1", top.port()}};
  FrameRelay right(cr, server_r);
  RelayConfig cb;
  cb.gateway_id = 4;
  cb.upstreams = {{"127.0.0.1", server_l.port()},
                  {"127.0.0.1", server_r.port()}};
  FrameRelay bottom(cb, server_b);

  left.start();
  right.start();
  bottom.start();
  Collector collector(server_b.port());
  ASSERT_TRUE(wait_subscribers(top, 2));
  ASSERT_TRUE(wait_subscribers(server_l, 1));
  ASSERT_TRUE(wait_subscribers(server_r, 1));
  ASSERT_TRUE(wait_subscribers(server_b, 1));

  constexpr std::size_t kFrames = 24;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    top.publish(make_event(i));
  }
  top.shutdown(/*drain=*/true);
  EXPECT_TRUE(left.join());
  EXPECT_TRUE(right.join());
  server_l.shutdown(/*drain=*/true);
  server_r.shutdown(/*drain=*/true);
  EXPECT_TRUE(bottom.join());
  server_b.shutdown(/*drain=*/true);
  collector.join();

  ASSERT_EQ(collector.events.size(), kFrames);
  std::set<std::uint64_t> keys;
  for (const auto& event : collector.events) {
    EXPECT_EQ(event.origin, 1u);
    EXPECT_EQ(event.hops, 2u);
    keys.insert(runtime::frame_identity(event).key());
  }
  EXPECT_EQ(keys.size(), kFrames);

  const auto counters = bottom.counters();
  EXPECT_EQ(counters.relayed, kFrames);
  EXPECT_EQ(counters.dup_drops, kFrames)
      << "the second copy of every frame must be identity-deduped";
  EXPECT_EQ(counters.loop_drops, 0u);
}

TEST(FrameRelay, HopLimitDropsOverTraveledFrames) {
  FrameServerConfig source_config;
  source_config.origin_id = 1;
  FrameServer source(source_config);
  FrameServer server_a{FrameServerConfig{}};
  FrameServer server_b{FrameServerConfig{}};

  RelayConfig c1;
  c1.gateway_id = 2;
  c1.upstreams = {{"127.0.0.1", source.port()}};
  FrameRelay relay_1(c1, server_a);

  RelayConfig c2;
  c2.gateway_id = 3;
  c2.hop_limit = 1;  // frames arriving with hops >= 1 are over-traveled
  c2.upstreams = {{"127.0.0.1", server_a.port()}};
  FrameRelay relay_2(c2, server_b);

  relay_1.start();
  relay_2.start();
  Collector collector(server_b.port());
  ASSERT_TRUE(wait_subscribers(source, 1));
  ASSERT_TRUE(wait_subscribers(server_a, 1));
  ASSERT_TRUE(wait_subscribers(server_b, 1));

  constexpr std::size_t kFrames = 16;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    source.publish(make_event(i));
  }
  source.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay_1.join());
  server_a.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay_2.join());
  server_b.shutdown(/*drain=*/true);
  collector.join();

  EXPECT_EQ(collector.events.size(), 0u)
      << "nothing may out-travel the hop limit";
  EXPECT_EQ(relay_1.counters().relayed, kFrames);
  EXPECT_EQ(relay_2.counters().hop_drops, kFrames);
  EXPECT_EQ(relay_2.counters().relayed, 0u);
}

TEST(FrameRelay, RedialsAnUpstreamThatSendsAMalformedMessage) {
  // A scripted upstream on a bare listener: the relay's first connection
  // gets a well-framed Bye whose reason byte is out of range; the redial
  // gets the three handshake acks, one frame and a clean Bye.
  TcpListener listener("127.0.0.1", 0);
  runtime::FrameEvent upstream_event = make_event(7);
  upstream_event.origin = 1;
  const obs::Counter& resets =
      obs::metrics().counter("net.client_protocol_resets");
  const std::uint64_t resets_before = resets.value();

  std::size_t scripted_connections = 0;
  std::thread upstream([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const auto accept_one = [&]() -> std::optional<TcpConnection> {
      while (std::chrono::steady_clock::now() < deadline) {
        std::vector<PollItem> items{{listener.fd(), true, false}};
        poll_fds(items, 100);
        FdHandle fd = listener.accept();
        if (fd.valid()) return TcpConnection(std::move(fd));
      }
      return std::nullopt;
    };
    // Reads until the relay hangs up, so this side never closes first with
    // the relay's handshake unread (the reset could beat the script).
    const auto drain_until_closed = [&](TcpConnection& conn) {
      std::uint8_t buf[4096];
      while (std::chrono::steady_clock::now() < deadline) {
        std::vector<PollItem> items{{conn.fd(), true, false}};
        poll_fds(items, 100);
        if (conn.read_some(buf, sizeof(buf)) == 0) return;
      }
    };

    std::optional<TcpConnection> first = accept_one();
    if (!first) return;
    ++scripted_connections;
    std::vector<std::uint8_t> malformed;
    encode_bye({ByeReason::kEndOfStream, "scripted"}, malformed);
    malformed[5] = 0xff;  // first body byte after the 5-byte header: reason
    write_all(*first, malformed);
    drain_until_closed(*first);

    std::optional<TcpConnection> second = accept_one();
    if (!second) return;
    ++scripted_connections;
    std::vector<std::uint8_t> script;
    Ack ack;
    ack.text = "scripted";
    for (int i = 0; i < 3; ++i) encode_ack(ack, script);  // hello, relay, sub
    encode_frame(upstream_event, script);
    encode_bye({ByeReason::kEndOfStream, "scripted"}, script);
    write_all(*second, script);
    drain_until_closed(*second);
  });

  FrameServer relay_server{FrameServerConfig{}};
  Collector collector(relay_server.port());
  ASSERT_TRUE(wait_subscribers(relay_server, 1));
  RelayConfig rc;
  rc.gateway_id = 2;
  rc.upstreams = {{"127.0.0.1", listener.port()}};
  FrameRelay relay(rc, relay_server);
  relay.start();
  upstream.join();
  EXPECT_TRUE(relay.join()) << "the redialed upstream ends cleanly";
  relay_server.shutdown(/*drain=*/true);
  collector.join();

  EXPECT_EQ(scripted_connections, 2u);
  EXPECT_EQ(resets.value() - resets_before, 1u);
  ASSERT_EQ(collector.events.size(), 1u);
  EXPECT_EQ(collector.events[0].frame.payload, upstream_event.frame.payload);
  EXPECT_EQ(collector.events[0].origin, 1u);
  EXPECT_EQ(collector.events[0].hops, 1u);
  const auto counters = relay.counters();
  EXPECT_EQ(counters.relayed, 1u);
  EXPECT_EQ(counters.upstream_ends, 1u);
  EXPECT_EQ(counters.upstream_failures, 0u);
}

// --- sharded decode ------------------------------------------------------

struct LongCapture {
  signal::SampleBuffer buffer{1e6, std::size_t{0}};
  std::vector<std::vector<bool>> payloads;
};

/// The multi-window capture builder of the windowed-decoder tests: `tags`
/// tags stream frames for `duration` through the full channel model.
LongCapture make_capture(std::size_t num_tags, Seconds duration,
                         std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  protocol::FrameConfig fc;
  for (std::size_t i = 0; i < num_tags; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.clock.drift_ppm = 40.0;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  LongCapture cap;
  std::vector<signal::StateTimeline> timelines;
  for (auto& t : tags) {
    std::vector<std::vector<bool>> frames;
    const auto n = static_cast<std::size_t>((duration - 1e-3) *
                                            (100.0 * kKbps) / 113.0);
    for (std::size_t f = 0; f < n; ++f) {
      cap.payloads.push_back(rng.bits(96));
      frames.push_back(protocol::build_frame(cap.payloads.back(), fc));
    }
    timelines.push_back(t.transmit_epoch(frames, duration, rng).timeline);
  }
  reader::Receiver receiver(rc, ch);
  cap.buffer = receiver.receive_epoch(timelines, duration, rng);
  return cap;
}

void expect_results_identical(const core::DecodeResult& a,
                              const core::DecodeResult& b) {
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const auto& s = a.streams[i];
    const auto& t = b.streams[i];
    EXPECT_EQ(s.start_sample, t.start_sample) << "stream " << i;
    EXPECT_EQ(s.rate, t.rate) << "stream " << i;
    EXPECT_EQ(s.collided, t.collided) << "stream " << i;
    EXPECT_EQ(s.bits, t.bits) << "stream " << i;
    EXPECT_EQ(s.edge_vector, t.edge_vector) << "stream " << i;
    EXPECT_EQ(s.snr_db, t.snr_db) << "stream " << i;
    EXPECT_EQ(s.confidence.edge_snr_db, t.confidence.edge_snr_db);
    EXPECT_EQ(s.confidence.edge_confidence, t.confidence.edge_confidence);
    EXPECT_EQ(s.confidence.path_margin, t.confidence.path_margin);
    EXPECT_EQ(s.confidence.cluster_separation,
              t.confidence.cluster_separation);
    EXPECT_EQ(s.confidence.erasures, t.confidence.erasures);
    EXPECT_EQ(s.confidence.stage, t.confidence.stage);
    ASSERT_EQ(s.frames.size(), t.frames.size()) << "stream " << i;
    for (std::size_t f = 0; f < s.frames.size(); ++f) {
      EXPECT_EQ(s.frames[f].payload, t.frames[f].payload);
      EXPECT_EQ(s.frames[f].anchor_ok, t.frames[f].anchor_ok);
      EXPECT_EQ(s.frames[f].crc_ok, t.frames[f].crc_ok);
    }
  }
  EXPECT_EQ(a.diagnostics.edges, b.diagnostics.edges);
  EXPECT_EQ(a.diagnostics.groups, b.diagnostics.groups);
  EXPECT_EQ(a.diagnostics.collision_groups, b.diagnostics.collision_groups);
  EXPECT_EQ(a.diagnostics.unresolved_groups,
            b.diagnostics.unresolved_groups);
  EXPECT_EQ(a.diagnostics.erasures, b.diagnostics.erasures);
  EXPECT_EQ(a.diagnostics.fallback_passes, b.diagnostics.fallback_passes);
  EXPECT_EQ(a.diagnostics.fallback_recoveries,
            b.diagnostics.fallback_recoveries);
}

TEST(ShardedDecode, MatchesSerialWindowedDecodeAcrossWorkerProcesses) {
  // THE acceptance test: the same capture through (a) the serial
  // WindowedDecoder and (b) two real worker *processes* over TCP must
  // produce bit-identical results, frames included.
  const LongCapture cap = make_capture(3, 70e-3, 7);
  core::WindowedDecoderConfig wc;  // 20 ms windows → 4 of them (tail kept)
  const core::DecodeResult local =
      core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(local.streams.empty()) << "capture must actually decode";

  // Bind listeners pre-fork so the ports are known here; each child owns
  // one worker session and exits when its coordinator says IqEnd.
  ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  std::vector<pid_t> children;
  for (ShardWorker* worker : {&worker_1, &worker_2}) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child process: serve one coordinator, then leave without touching
      // gtest's state.
      try {
        worker->serve();
      } catch (...) {
        _exit(2);
      }
      _exit(0);
    }
    children.push_back(pid);
  }

  ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  sc.epoch_index = 5;
  ShardedDecoder sharded(sc);
  std::vector<runtime::FrameEvent> published;
  sharded.bus().subscribe([&](const runtime::FrameEvent& event) {
    published.push_back(event);
  });
  runtime::MemorySource source(cap.buffer, 8192);
  const ShardedDecoder::Result result = sharded.run(source);

  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker process must exit cleanly";
  }

  expect_results_identical(local, result.decode);

  // Both workers must actually have decoded: 4 windows round-robin over 2.
  EXPECT_EQ(result.stats.windows_assigned, 4u);
  EXPECT_EQ(result.stats.windows_decoded, 4u);
  EXPECT_EQ(result.stats.samples_in, cap.buffer.size());

  // Published frames carry the stamped identity coordinates.
  std::size_t total_frames = 0;
  for (const auto& stream : result.decode.streams) {
    total_frames += stream.frames.size();
  }
  EXPECT_EQ(result.stats.frames_published, total_frames);
  ASSERT_EQ(published.size(), total_frames);
  for (const auto& event : published) {
    EXPECT_EQ(event.epoch_index, 5u);
  }
}

TEST(ShardedDecode, ShortCaptureTakesThePlainPathBitIdentically) {
  // ≤ 1.5 windows: the coordinator must ship the whole buffer as one
  // short-capture assignment and match WindowedDecoder::decode's plain
  // fall-through exactly. In-process workers (threads) keep this quick.
  const LongCapture cap = make_capture(2, 4e-3, 21);
  core::WindowedDecoderConfig wc;
  const core::DecodeResult local =
      core::WindowedDecoder(wc).decode(cap.buffer);

  ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  std::thread t1([&] { worker_1.serve(); });
  std::thread t2([&] { worker_2.serve(); });

  ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  ShardedDecoder sharded(sc);
  runtime::MemorySource source(cap.buffer, 2048);
  const ShardedDecoder::Result result = sharded.run(source);
  t1.join();
  t2.join();

  expect_results_identical(local, result.decode);
  EXPECT_EQ(result.stats.windows_assigned, 1u);
}

/// A source with a hole in the middle, as ring overflow leaves on a live
/// capture (the runtime tests' GappySource).
class GappySource : public runtime::SampleSource {
 public:
  GappySource(const signal::SampleBuffer& buffer, std::size_t gap_begin,
              std::size_t gap_end, std::size_t chunk_samples)
      : buffer_(buffer),
        gap_begin_(gap_begin),
        gap_end_(gap_end),
        chunk_samples_(chunk_samples) {}

  SampleRate sample_rate() const override { return buffer_.sample_rate(); }

  std::optional<runtime::SampleChunk> next_chunk() override {
    if (position_ == gap_begin_) position_ = gap_end_;
    if (position_ >= buffer_.size()) return std::nullopt;
    const std::size_t end =
        std::min({buffer_.size(), position_ + chunk_samples_,
                  position_ < gap_begin_ ? gap_begin_ : buffer_.size()});
    runtime::SampleChunk chunk;
    chunk.first_sample = position_;
    const auto view = buffer_.slice(position_, end);
    chunk.samples.assign(view.begin(), view.end());
    position_ = end;
    return chunk;
  }

 private:
  const signal::SampleBuffer& buffer_;
  std::size_t gap_begin_;
  std::size_t gap_end_;
  std::size_t chunk_samples_;
  std::size_t position_ = 0;
};

/// Runs `source` through a two-worker shard pool of in-process workers.
ShardedDecoder::Result shard_decode(const core::WindowedDecoderConfig& wc,
                                    runtime::SampleSource& source) {
  ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  std::thread t1([&] { worker_1.serve(); });
  std::thread t2([&] { worker_2.serve(); });
  ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  ShardedDecoder sharded(sc);
  ShardedDecoder::Result result = sharded.run(source);
  t1.join();
  t2.join();
  return result;
}

TEST(ShardedDecode, ZeroFillsDroppedChunkGaps) {
  // The gap spans the boundary between windows 0 and 1 (100 000 samples).
  const LongCapture cap = make_capture(2, 60e-3, 47);
  const std::size_t gap_begin = 90000;
  const std::size_t gap_end = 130000;
  signal::SampleBuffer silenced = cap.buffer;
  for (std::size_t i = gap_begin; i < gap_end; ++i) silenced[i] = Complex{};
  const core::WindowedDecoderConfig wc;
  const core::DecodeResult serial = core::WindowedDecoder(wc).decode(silenced);
  ASSERT_FALSE(serial.valid_payloads().empty());

  GappySource source(cap.buffer, gap_begin, gap_end, 8192);
  const ShardedDecoder::Result result = shard_decode(wc, source);
  expect_results_identical(serial, result.decode);
  EXPECT_EQ(result.stats.samples_in,
            cap.buffer.size() - (gap_end - gap_begin));
}

/// One tag streaming `frames` frames at `snr_db`, built like the
/// robustness tests' fallback-ladder capture.
signal::SampleBuffer low_snr_capture(std::uint64_t seed, double snr_db,
                                     int frames) {
  Rng rng(seed);
  const Complex h{0.08, 0.06};
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = channel::noise_power_for_snr(std::norm(h), snr_db);
  channel::ChannelModel ch;
  ch.add_tag(h);
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  std::vector<std::vector<bool>> bits;
  for (int f = 0; f < frames; ++f) {
    bits.push_back(protocol::build_frame(rng.bits(fc.payload_bits), fc));
  }
  tag::TagConfig tc;
  tag::Tag tag(tc, rng);
  const Seconds duration = frames * 113.0 / tc.rate + 1e-3;
  const std::vector<signal::StateTimeline> timelines{
      tag.transmit_epoch(bits, duration, rng).timeline};
  return receiver.receive_epoch(timelines, duration, rng);
}

TEST(WindowPipeline, StreamingPathsMatchSerialUnlessOnlyTheRescueFindsFrames) {
  // The serial, runtime and shard paths share the window lattice, the
  // per-window decode and the stitch. When the stitched result holds a
  // CRC-valid frame, all three are identical.
  const core::WindowedDecoderConfig wc;
  const LongCapture clean = make_capture(3, 70e-3, 7);
  const core::DecodeResult serial = core::WindowedDecoder(wc).decode(clean.buffer);
  ASSERT_FALSE(serial.valid_payloads().empty());
  runtime::RuntimeConfig rc;
  rc.windowed = wc;
  rc.workers = 2;
  expect_results_identical(
      serial, runtime::DecodeRuntime(rc).decode(clean.buffer).decode);
  runtime::MemorySource clean_source(clean.buffer, 8192);
  expect_results_identical(serial, shard_decode(wc, clean_source).decode);

  // When it holds none, only the serial path re-decodes the whole capture
  // with the fallback ladder. The streaming paths return the stitch as it
  // stands: the serial decode with that rescue switched off.
  const signal::SampleBuffer weak = low_snr_capture(77, 7.0, 40);
  const core::DecodeResult rescued = core::WindowedDecoder(wc).decode(weak);
  EXPECT_FALSE(rescued.valid_payloads().empty());
  EXPECT_GT(rescued.diagnostics.fallback_passes, 0u);
  core::WindowedDecoderConfig no_rescue = wc;
  no_rescue.decoder.robustness.fallback = false;
  const core::DecodeResult stitched =
      core::WindowedDecoder(no_rescue).decode(weak);
  EXPECT_TRUE(stitched.valid_payloads().empty());
  const core::DecodeResult streamed =
      runtime::DecodeRuntime(rc).decode(weak).decode;
  EXPECT_TRUE(streamed.valid_payloads().empty());
  expect_results_identical(stitched, streamed);
  runtime::MemorySource weak_source(weak, 8192);
  expect_results_identical(stitched, shard_decode(wc, weak_source).decode);
}

TEST(ShardedDecode, DeadWorkerPoolFailsStrictly) {
  // Strict failure stance: a pool member that isn't there fails the run
  // with SocketError — never a silent hole in the capture.
  std::uint16_t dead_port;
  {
    TcpListener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  ShardConfig sc;
  sc.workers = {{"127.0.0.1", dead_port}};
  sc.connect_timeout = 0.5;
  ShardedDecoder sharded(sc);
  const LongCapture cap = make_capture(1, 2e-3, 3);
  runtime::MemorySource source(cap.buffer, 1024);
  EXPECT_THROW(sharded.run(source), SocketError);
}

}  // namespace
}  // namespace lfbs::net::federation
