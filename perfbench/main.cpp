// The repository benchmark: one seeded workload per process.
//
//   lfbs_perfbench --workload stream|epoch16|fanout --seed N --seconds S
//                  --trace 0|1
//
// Prints a human-readable summary, one `{"record": ...}` line (host
// fingerprint, seed, output digest, every named metric) and, last, the
// summary line BENCHMARK.json describes: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics;
// --trace 1 attaches obs::Tracer for part of the run and reports the
// per-layer metrics instead. Exits 1 when any output diverges.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

/// The end-to-end metrics every workload reports (BENCHMARK.json).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"serial_kps", "k/s"},
    {"throughput_kps", "k/s"},  {"socket_kps", "k/s"},
    {"latency_p50_ms", "ms"},   {"peak_rss_mb", "MB"},
};

/// The per-layer metrics of the traced run.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"signal.detect_ms_per_msample", "ms/Msample"},
    {"signal.edges_per_msample", "1/Msample"},
    {"signal.detect_self_share", "fraction"},
    {"dsp.cluster_ms_per_msample", "ms/Msample"},
    {"dsp.viterbi_ms_per_msample", "ms/Msample"},
    {"protocol.crc_ms_per_msample", "ms/Msample"},
    {"protocol.crc_self_share", "fraction"},
    {"core.pass_self_ms_per_msample", "ms/Msample"},
    {"core.pass_self_share", "fraction"},
    {"core.stitch_ms_per_window", "ms"},
    {"core.collision_groups", "count"},
    {"core.unresolved_groups", "count"},
    {"core.fallback_passes", "count"},
    {"core.fallback_useful_ratio", "fraction"},
    {"core.frame_recovery", "fraction"},
    {"decode_spans", "count"},
    {"runtime.worker_busy_frac", "fraction"},
    {"runtime.window_decode_ms_p50", "ms"},
    {"runtime.window_decode_ms_p99", "ms"},
    {"runtime.window_wait_ms_p50", "ms"},
    {"runtime.run_overhead_ms", "ms"},
    {"net.publish_us_per_frame", "us"},
    {"net.receive_us_per_frame", "us"},
    {"net.queue_drops", "count"},
    {"net.queue_bytes_peak", "B"},
    {"net.generator_late_ms_p99", "ms"},
    {"shard.msps", "Msample/s"},
    {"shard.overhead_frac", "fraction"},
    {"shard.window_rtt_ms_p50", "ms"},
    {"shard.bytes_per_sample", "B/sample"},
    {"trace_overhead_pct", "%"},
};

/// Per-layer metrics of layers `workload` does not exercise: they read 0.
/// Every other per-layer metric must be reported by the workload itself
/// (fanout's span-derived decode metrics are, and read 0 from no spans).
std::vector<std::string> not_exercised(const std::string& workload) {
  if (workload == "fanout") {
    return {"core.collision_groups", "core.unresolved_groups",
            "core.fallback_passes",  "core.fallback_useful_ratio",
            "shard.msps",            "shard.overhead_frac",
            "shard.window_rtt_ms_p50", "shard.bytes_per_sample"};
  }
  return {"net.publish_us_per_frame", "net.receive_us_per_frame",
          "net.queue_drops", "net.queue_bytes_peak",
          "net.generator_late_ms_p99"};
}

int usage() {
  std::fprintf(stderr,
               "usage: lfbs_perfbench --workload stream|epoch16|fanout "
               "[--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Orders `have` as `want` lists it, filling the metrics in `absent` with
/// 0. Any other metric that is missing, has the wrong unit or is not
/// finite is a benchmark bug and fails the run.
std::vector<Metric> canonical(
    const std::vector<Metric>& have,
    const std::vector<std::pair<std::string, std::string>>& want,
    const std::vector<std::string>& absent, Result& out) {
  std::vector<Metric> result;
  for (const auto& [name, unit] : want) {
    const Metric* found = nullptr;
    for (const Metric& m : have) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr &&
        std::find(absent.begin(), absent.end(), name) != absent.end()) {
      result.push_back({name, 0.0, unit});
      continue;
    }
    if (found == nullptr || found->unit != unit ||
        !std::isfinite(found->value)) {
      out.correct = false;
      out.notes.push_back("metric " + name + " missing or malformed");
      result.push_back({name, 0.0, unit});
      continue;
    }
    result.push_back(*found);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) return usage();

  void (*run)(const Options&, Result&) = nullptr;
  if (opt.workload == "stream") run = run_stream;
  if (opt.workload == "epoch16") run = run_epoch16;
  if (opt.workload == "fanout") run = run_fanout;
  if (run == nullptr) return usage();

  const std::string host = host_fingerprint_json();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\nhost %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, host.c_str());
  std::fflush(stdout);

  Result out;
  try {
    run(opt, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  const std::vector<Metric> reported =
      opt.trace
          ? canonical(out.per_layer, kPerLayer, not_exercised(opt.workload), out)
          : canonical(out.end_to_end, kEndToEnd, {}, out);
  const double failed_frac =
      out.attempted ? static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted)
                    : 0.0;

  std::printf("\n%s (%s):\n", opt.workload.c_str(),
              opt.trace ? "traced run, per-layer" : "end to end");
  for (const Metric& m : reported) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : out.detail) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-32s %16.6g %s  (%llu of %llu)\n", "failed_frac",
              failed_frac, "fraction",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("  %-32s %16s\n", "digest", out.digest.c_str());
  for (const std::string& note : out.notes) {
    std::printf("  note: %s\n", note.c_str());
  }

  std::vector<Metric> all = reported;
  all.insert(all.end(), out.detail.begin(), out.detail.end());
  all.push_back({"failed_frac", failed_frac, "fraction"});
  std::string notes = "[";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    notes += (i ? ", " : "") + json_string(out.notes[i]);
  }
  notes += "]";
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host\": %s, \"digest\": %s, \"notes\": %s, "
      "\"metrics\": %s}}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.trace ? 1 : 0, host.c_str(),
      json_string(out.digest).c_str(), notes.c_str(),
      metrics_json(all).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(reported).c_str());
  return out.correct ? 0 : 1;
}
