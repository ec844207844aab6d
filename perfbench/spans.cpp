#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "bench.h"

namespace perfbench {

using lfbs::obs::SpanRecord;

void SpanStore::drain(lfbs::obs::Tracer& tracer) {
  for (auto& span : tracer.drain()) spans_.push_back(std::move(span));
}

double SpanStore::Row::attr_sum(const std::string& key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return 0.0;
}

namespace {

/// Self time of every span, in µs: its duration minus the durations of its
/// direct children. Spans of one thread nest strictly, so in start order a
/// span's parent is the nearest earlier open span one level up on the same
/// thread that still contains it.
std::vector<double> self_us(const std::vector<SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.depth < y.depth;
  });
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].dur_us);
  }
  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const SpanRecord& s = spans[i];
    if (s.tid != tid) open.clear(), tid = s.tid;
    while (!open.empty() && spans[open.back()].depth >= s.depth) {
      open.pop_back();
    }
    if (!open.empty()) {
      const SpanRecord& p = spans[open.back()];
      const bool contained = p.depth == s.depth - 1 &&
                             s.start_us >= p.start_us &&
                             s.start_us + s.dur_us <= p.start_us + p.dur_us;
      if (contained) self[open.back()] -= static_cast<double>(s.dur_us);
    }
    open.push_back(i);
  }
  for (double& v : self) v = std::max(0.0, v);
  return self;
}

/// Spans that do decode work on the thread that records them. The rest
/// (runtime "run", the benchmark's wrappers around DecodeRuntime::decode
/// and ShardedDecoder::run, the net spans) mostly wait on other threads.
const std::set<std::string>& decode_work_spans() {
  static const std::set<std::string> names = {
      "detect",         "cluster",    "viterbi",       "crc",
      "decode_pass",    "fallback_pass", "stitch",     "window",
      "decode_window",  "add_window", "finish",        "windowed_decode"};
  return names;
}

/// Decode spans the library itself emits (as opposed to the benchmark's).
const std::set<std::string>& library_decode_spans() {
  static const std::set<std::string> names = {
      "detect", "cluster", "viterbi",       "crc",    "decode_pass",
      "fallback_pass", "stitch", "window",  "run"};
  return names;
}

}  // namespace

std::vector<SpanStore::Row> SpanStore::rows() const {
  const std::vector<double> self = self_us(spans_);
  std::map<std::string, Row> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    Row& row = by_name[s.name];
    row.name = s.name;
    row.category = s.category;
    ++row.count;
    row.inclusive_ms += static_cast<double>(s.dur_us) * 1e-3;
    row.self_ms += self[i] * 1e-3;
    for (const auto& [key, value] : s.attrs) {
      auto it = std::find_if(row.attrs.begin(), row.attrs.end(),
                             [&](const auto& kv) { return kv.first == key; });
      if (it == row.attrs.end()) {
        row.attrs.emplace_back(key, value);
      } else {
        it->second += value;
      }
    }
  }
  std::vector<Row> rows;
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.self_ms > b.self_ms;
  });
  return rows;
}

void span_layer_metrics(const SpanStore& store, double msamples,
                        std::size_t runtime_workers, Result& out) {
  const std::vector<SpanStore::Row> rows = store.rows();
  double decode_self_ms = 0.0;
  std::size_t library_decode_spans_seen = 0;
  for (const auto& row : rows) {
    if (decode_work_spans().count(row.name)) decode_self_ms += row.self_ms;
    if (row.category != kBenchCategory &&
        library_decode_spans().count(row.name)) {
      library_decode_spans_seen += row.count;
    }
  }
  const auto find = [&](const char* name) -> const SpanStore::Row* {
    for (const auto& row : rows) {
      if (row.name == name && row.category != kBenchCategory) return &row;
    }
    return nullptr;
  };
  const auto self_ms = [&](const char* name) {
    const SpanStore::Row* row = find(name);
    return row ? row->self_ms : 0.0;
  };
  const auto per_msample = [&](const char* name) {
    return msamples > 0.0 ? self_ms(name) / msamples : 0.0;
  };
  const auto share = [&](const char* name) {
    return decode_self_ms > 0.0 ? self_ms(name) / decode_self_ms : 0.0;
  };

  std::printf("\nself time (traced rounds, %.3f Msample decoded):\n",
              msamples);
  std::printf("  %-16s %-9s %9s %12s %12s %8s\n", "span", "category",
              "count", "incl ms", "self ms", "share");
  for (const auto& row : rows) {
    const bool work = decode_work_spans().count(row.name) > 0;
    std::printf("  %-16s %-9s %9zu %12.2f %12.2f %8s\n", row.name.c_str(),
                row.category.c_str(), row.count, row.inclusive_ms,
                row.self_ms,
                work && decode_self_ms > 0.0
                    ? (std::to_string(static_cast<int>(
                           100.0 * row.self_ms / decode_self_ms + 0.5)) +
                       "%")
                          .c_str()
                    : "-");
  }

  const SpanStore::Row* detect = find("detect");
  const double detect_msamples =
      detect ? detect->attr_sum("samples") / 1e6 : 0.0;
  out.layer("signal.detect_ms_per_msample", per_msample("detect"), "ms/Msample");
  out.layer("signal.edges_per_msample",
            detect_msamples > 0.0 ? detect->attr_sum("edges") / detect_msamples
                                  : 0.0,
            "1/Msample");
  out.layer("signal.detect_self_share", share("detect"), "fraction");
  out.layer("dsp.cluster_ms_per_msample", per_msample("cluster"), "ms/Msample");
  out.layer("dsp.viterbi_ms_per_msample", per_msample("viterbi"), "ms/Msample");
  out.layer("protocol.crc_ms_per_msample", per_msample("crc"), "ms/Msample");
  out.layer("protocol.crc_self_share", share("crc"), "fraction");
  out.layer("core.pass_self_ms_per_msample", per_msample("decode_pass"),
            "ms/Msample");
  out.layer("core.pass_self_share", share("decode_pass"), "fraction");
  const SpanStore::Row* stitch = find("stitch");
  out.layer("core.stitch_ms_per_window",
            stitch && stitch->count > 0
                ? stitch->inclusive_ms / static_cast<double>(stitch->count)
                : 0.0,
            "ms");
  out.layer("decode_spans", static_cast<double>(library_decode_spans_seen),
            "count");

  // Runtime accounting: every "window" span (a worker's decode of one
  // window) falls inside the caller's "run" span of the same run; runs are
  // sequential, so containment assigns windows to runs.
  std::vector<const SpanRecord*> runs, windows;
  for (const auto& s : store.spans()) {
    if (s.category != "runtime") continue;
    if (s.name == "run") runs.push_back(&s);
    if (s.name == "window") windows.push_back(&s);
  }
  double run_us = 0.0, busy_us = 0.0;
  std::vector<double> decode_ms, wait_ms, overhead_ms;
  for (const SpanRecord* run : runs) {
    double run_busy = 0.0;
    std::size_t n = 0;
    for (const SpanRecord* w : windows) {
      if (w->start_us < run->start_us ||
          w->start_us > run->start_us + run->dur_us) {
        continue;
      }
      run_busy += static_cast<double>(w->dur_us);
      decode_ms.push_back(static_cast<double>(w->dur_us) * 1e-3);
      wait_ms.push_back(static_cast<double>(w->start_us - run->start_us) *
                        1e-3);
      ++n;
    }
    run_us += static_cast<double>(run->dur_us);
    busy_us += run_busy;
    const double lanes =
        static_cast<double>(std::max<std::size_t>(
            1, std::min(runtime_workers, n)));
    overhead_ms.push_back(
        (static_cast<double>(run->dur_us) - run_busy / lanes) * 1e-3);
  }
  const double lanes_total =
      run_us * static_cast<double>(std::max<std::size_t>(1, runtime_workers));
  out.layer("runtime.worker_busy_frac",
            lanes_total > 0.0 ? busy_us / lanes_total : 0.0, "fraction");
  out.layer("runtime.window_decode_ms_p50", quantile(decode_ms, 0.5), "ms");
  out.layer("runtime.window_decode_ms_p99", quantile(decode_ms, 0.99), "ms");
  out.layer("runtime.window_wait_ms_p50", quantile(wait_ms, 0.5), "ms");
  double overhead_sum = 0.0;
  for (const double v : overhead_ms) overhead_sum += v;
  out.layer("runtime.run_overhead_ms",
            overhead_ms.empty()
                ? 0.0
                : overhead_sum / static_cast<double>(overhead_ms.size()),
            "ms");
}

}  // namespace perfbench
