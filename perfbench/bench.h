#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/lf_decoder.h"
#include "obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `end_to_end` holds the metrics
/// BENCHMARK.json gates (untraced run only); `detail` holds the
/// workload-specific names (serial_msps, fanout_kfps, ...) printed in the
/// human-readable part and the full record line; `per_layer` is filled
/// from the traced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  ///< hex digest of the discrete outputs
  std::vector<std::string> notes;  ///< divergences and other findings
  std::vector<Metric> end_to_end;
  std::vector<Metric> detail;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void info(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records an output divergence: the run is incorrect and exits non-zero.
  void diverged(const std::string& what) {
    correct = false;
    notes.push_back("DIVERGED: " + what);
  }
};

// --- clocks, statistics, process facts (record.cpp) ------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Process peak resident set (VmHWM), in MB.
double peak_rss_mb();
/// Hardware threads the benchmark may use (at least 1).
std::size_t host_threads();
/// Decode threads for the runtime and the shard pool: one fewer than the
/// host has, so the pipeline's own assembler, stitcher or coordinator
/// thread keeps a core. With every core decoding, a round's wall time
/// swings with any other load on the host (7% vs 1.5% run-to-run on a
/// shared 4-core VM, paired runs).
inline std::size_t decode_workers() {
  return host_threads() > 1 ? host_threads() - 1 : 1;
}
/// One-line JSON object: CPU model, nproc, build type, compiler.
std::string host_fingerprint_json();
/// `s` as a quoted JSON string; control characters are dropped.
std::string json_string(const std::string& s);

/// Times bring-ups of throwaway instances in batches spread over the run;
/// setup_s is the median of all of them. Bring-up is mostly thread start
/// and loopback connects, and its cost follows the host's speed, which
/// drifts over seconds: one batch at the start read 0.15 to 0.32 ms
/// from batch to batch in one process on a shared 4-core VM. `make`
/// returns a fresh instance, which is torn down after its timing stops.
template <class Make>
class SetupSampler {
 public:
  static constexpr std::size_t kBatch = 8;
  static constexpr double kEverySeconds = 0.25;

  explicit SetupSampler(Make make) : make_(std::move(make)) {}

  /// Takes a batch when the last one is at least kEverySeconds old.
  void sample() {
    if (now_s() < next_) return;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const double t0 = now_s();
      const auto instance = make_();
      seconds_.push_back(now_s() - t0);
    }
    next_ = now_s() + kEverySeconds;
  }
  double median_s() const { return median(seconds_); }
  std::size_t count() const { return seconds_.size(); }

 private:
  Make make_;
  std::vector<double> seconds_;
  double next_ = 0.0;
};

/// FNV-1a over discrete decoder outputs: stream bits, frame CRC verdicts and
/// fallback stage — no floats, so the digest is portable across
/// optimisation levels and compilers.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_result(const lfbs::core::DecodeResult& result);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};
std::uint64_t digest_of(const lfbs::core::DecodeResult& result);

/// The core layer's decode counts (collision groups, unresolved groups,
/// fallback passes and their useful ratio) as per-layer metrics.
void diagnostics_layer_metrics(const lfbs::core::DecodeDiagnostics& d,
                               Result& out);

/// Sent payloads found CRC-valid in `result` (multiset match).
std::size_t payloads_recovered(
    const std::vector<std::vector<bool>>& sent,
    const lfbs::core::DecodeResult& result);

// --- tracing (spans.cpp) ----------------------------------------------------

/// Category of the spans the benchmark opens around its own calls into the
/// library, so they can be told apart from the spans src/ emits.
inline constexpr const char* kBenchCategory = "bench";

/// In-memory span store for the traced run: the tracer is drained into it
/// between rounds, and the per-layer numbers are computed at the end.
class SpanStore {
 public:
  /// Moves every span out of `tracer` into the store.
  void drain(lfbs::obs::Tracer& tracer);
  const std::vector<lfbs::obs::SpanRecord>& spans() const { return spans_; }

  struct Row {
    std::string name;
    std::string category;
    std::size_t count = 0;
    double inclusive_ms = 0.0;
    double self_ms = 0.0;
    double attr_sum(const std::string& key) const;
    std::vector<std::pair<std::string, double>> attrs;
  };
  /// Per-name totals, self time = duration minus the time direct children
  /// on the same thread cover. Sorted by self time, descending.
  std::vector<Row> rows() const;

 private:
  std::vector<lfbs::obs::SpanRecord> spans_;
};

/// Fills the span-derived per-layer metrics (signal, dsp, protocol, core
/// self times and shares, runtime worker accounting) into `out`, and prints
/// the self-time table. `msamples` is the input decoded while traced.
void span_layer_metrics(const SpanStore& store, double msamples,
                        std::size_t runtime_workers, Result& out);

// --- workloads ----------------------------------------------------------------

void run_stream(const Options& opt, Result& out);
void run_epoch16(const Options& opt, Result& out);
void run_fanout(const Options& opt, Result& out);

}  // namespace perfbench
