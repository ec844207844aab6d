#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace lfbs::obs {

/// Prometheus text exposition (version 0.0.4) of a metrics snapshot.
/// Metric names are sanitized (dots → underscores) and prefixed `lfbs_`;
/// histograms expose the usual cumulative `_bucket{le=...}` series plus
/// `_sum` and `_count`.
void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& os);

/// Writes the exposition to `path` ("-" = stdout), replacing the file —
/// the periodic emitter rewrites it each interval, like a scrape target.
/// Returns false when the file cannot be opened.
bool write_prometheus_file(const MetricsSnapshot& snapshot,
                           const std::string& path);

/// Calls `tick` every `interval_seconds` on a background thread until
/// stopped (and once more at stop, so a run shorter than the interval
/// still emits a final snapshot). The callback does whatever the embedder
/// wires up — rewrite a Prometheus file, append a snapshot event, print a
/// stats line.
class SnapshotEmitter {
 public:
  SnapshotEmitter(double interval_seconds, std::function<void()> tick);
  ~SnapshotEmitter();

  SnapshotEmitter(const SnapshotEmitter&) = delete;
  SnapshotEmitter& operator=(const SnapshotEmitter&) = delete;

  void stop();

 private:
  double interval_seconds_;
  std::function<void()> tick_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace lfbs::obs
