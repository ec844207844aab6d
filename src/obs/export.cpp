#include "obs/export.h"

#include <chrono>
#include <fstream>
#include <iostream>

namespace lfbs::obs {

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = "lfbs_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& os) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << value << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    const auto& counts = h.bucket_counts();
    for (std::size_t b = 0; b < h.bounds().size(); ++b) {
      cumulative += counts[b];
      os << n << "_bucket{le=\"" << h.bounds()[b] << "\"} " << cumulative
         << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
    os << n << "_sum " << h.sum() << "\n";
    os << n << "_count " << h.count() << "\n";
  }
}

bool write_prometheus_file(const MetricsSnapshot& snapshot,
                           const std::string& path) {
  if (path == "-") {
    write_prometheus(snapshot, std::cout);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  write_prometheus(snapshot, out);
  return out.good();
}

SnapshotEmitter::SnapshotEmitter(double interval_seconds,
                                 std::function<void()> tick)
    : interval_seconds_(std::max(interval_seconds, 1e-3)),
      tick_(std::move(tick)) {
  thread_ = std::thread([this] {
    std::unique_lock lock(mutex_);
    for (;;) {
      cv_.wait_for(lock, std::chrono::duration<double>(interval_seconds_),
                   [&] { return stop_requested_; });
      if (stop_requested_) return;
      lock.unlock();
      tick_();
      lock.lock();
    }
  });
}

SnapshotEmitter::~SnapshotEmitter() { stop(); }

void SnapshotEmitter::stop() {
  bool was_running = false;
  {
    std::lock_guard lock(mutex_);
    was_running = !stop_requested_;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final tick so short runs still produce one snapshot.
  if (was_running && tick_) tick_();
}

}  // namespace lfbs::obs
