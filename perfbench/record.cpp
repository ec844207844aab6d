#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::size_t host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_fingerprint_json() {
  return "{\"cpu\": " + json_string(cpu_model()) +
         ", \"nproc\": " + std::to_string(host_threads()) +
         ", \"build_type\": " + json_string(LFBS_PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(LFBS_PERFBENCH_COMPILER) + "}";
}

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ull;
  }
}

void Digest::add_result(const lfbs::core::DecodeResult& result) {
  add_u64(result.streams.size());
  for (const auto& stream : result.streams) {
    add_u64(stream.bits.size());
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < stream.bits.size(); ++i) {
      word = (word << 1) | (stream.bits[i] ? 1u : 0u);
      if (i % 64 == 63) add_u64(word), word = 0;
    }
    add_u64(word);
    add_u64(stream.frames.size());
    for (const auto& frame : stream.frames) {
      add_u64((frame.anchor_ok ? 1u : 0u) | (frame.crc_ok ? 2u : 0u));
    }
    add_u64(static_cast<std::uint64_t>(stream.confidence.stage));
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t digest_of(const lfbs::core::DecodeResult& result) {
  Digest d;
  d.add_result(result);
  return d.value();
}

void diagnostics_layer_metrics(const lfbs::core::DecodeDiagnostics& d,
                               Result& out) {
  out.layer("core.collision_groups", static_cast<double>(d.collision_groups),
            "count");
  out.layer("core.unresolved_groups", static_cast<double>(d.unresolved_groups),
            "count");
  out.layer("core.fallback_passes", static_cast<double>(d.fallback_passes),
            "count");
  out.layer("core.fallback_useful_ratio",
            d.fallback_passes ? static_cast<double>(d.fallback_recoveries) /
                                    static_cast<double>(d.fallback_passes)
                              : 0.0,
            "fraction");
}

std::size_t payloads_recovered(
    const std::vector<std::vector<bool>>& sent,
    const lfbs::core::DecodeResult& result) {
  std::map<std::vector<bool>, std::size_t> valid;
  for (auto& payload : result.valid_payloads()) ++valid[payload];
  std::size_t recovered = 0;
  for (const auto& payload : sent) {
    const auto it = valid.find(payload);
    if (it != valid.end() && it->second > 0) {
      --it->second;
      ++recovered;
    }
  }
  return recovered;
}

}  // namespace perfbench
