// Online anomaly detection for consistency runs (the diagnosis layer).
//
// A Watchdog is a simulated coroutine that wakes every watch period and
// evaluates a fixed set of detectors against the observatory (metrics
// registry probes/histograms) and the trace stream:
//
//   recall-storm      delegation recalls per window beyond the policy
//                     engine's breaker threshold — the fleet is thrashing
//   staleness-slo     p99 cached-read staleness above the proven
//                     poll_period + 2*RTT budget for a registered histogram
//   migration-flap    one file promoted/demoted repeatedly inside a short
//                     window — hysteresis or dwell is not holding
//   inv-overflow      invalidation buffers wrapped (clients owe whole-cache
//                     invalidations) or occupancy has risen for several
//                     consecutive windows
//   shard-imbalance   one shard of a registered group carries a multiple of
//                     the mean load of its peers
//
// Each firing appends an Anomaly record, bumps an observatory counter,
// emits a kAnomaly trace event, and invokes the on-anomaly hook (the flight
// recorder). Everything here is strictly opt-in: nothing in this library is
// constructed unless a testbed enables diagnosis, so disabled runs pay zero
// cost and produce byte-identical results.
//
// Like src/trace, this library is a leaf over common/sim/trace/metrics; it
// never includes gvfs headers. Protocol state reaches the flight recorder
// through callbacks registered by the testbed (see recorder.h).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/types.h"
#include "metrics/registry.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace gvfs::obs {

enum class AnomalyKind : std::uint32_t {
  kRecallStorm,
  kStalenessSlo,
  kMigrationFlap,
  kInvOverflow,
  kShardImbalance,
};

/// Kebab-case detector name ("recall-storm", ...); "?" for out-of-range.
const char* AnomalyKindName(AnomalyKind kind);

/// Inverse of AnomalyKindName; returns false when `name` is not a detector.
bool AnomalyKindFromName(const std::string& name, AnomalyKind* out);

/// One registered detector. The table drives the doctor's verdict rendering
/// and the gvfs-lint anomaly-coverage rule: every AnomalyKind must appear
/// here, in AnomalyKindName, and in the doctor's VerdictFor table.
struct DetectorInfo {
  AnomalyKind kind;
  const char* name;     // AnomalyKindName(kind)
  const char* summary;  // one-line description for reports
};

constexpr std::size_t kDetectorCount = 5;
extern const DetectorInfo kDetectors[kDetectorCount];

/// The watchdog settings a run chooses; the other detectors' thresholds are
/// the constants below.
struct ObsConfig {
  Duration watch_period = Seconds(5);

  /// recall-storm: delegation recalls (read + write) observed fleet-wide
  /// within one watch window. Mirrors SessionConfig::policy_storm_recalls,
  /// but fires even when the policy breaker is disabled or frozen. Zero
  /// disables the detector.
  std::uint64_t recall_storm_threshold = 64;
};

/// migration-flap: completed MIGRATEs for one file within kFlapWindow.
inline constexpr std::uint32_t kFlapThreshold = 3;
inline constexpr Duration kFlapWindow = Seconds(30);

/// inv-overflow: buffer wraps per window, and the occupancy trend — the
/// summed buffer occupancy rising for kOccupancyTrendWindows consecutive
/// windows while at or above kOccupancyFloor entries.
inline constexpr std::uint64_t kOverflowWraps = 1;
inline constexpr int kOccupancyTrendWindows = 3;
inline constexpr double kOccupancyFloor = 1024.0;

/// shard-imbalance: max/mean occupancy ratio across a registered shard
/// group, ignored until the loaded shard holds kImbalanceMin entries.
inline constexpr double kImbalanceRatio = 4.0;
inline constexpr double kImbalanceMin = 256.0;

/// One detector firing.
struct Anomaly {
  AnomalyKind kind = AnomalyKind::kRecallStorm;
  SimTime time = 0;
  HostId host = kInvalidHost;  // implicated host when known
  std::uint64_t fsid = 0;      // offending file for file-scoped detectors
  std::uint64_t ino = 0;
  double value = 0;      // observed measurement
  double threshold = 0;  // configured limit it crossed
  std::string detail;    // human-readable one-liner
};

class Watchdog {
 public:
  Watchdog(sim::Scheduler& sched, ObsConfig config = {});
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Metrics-side detectors read probe values / histograms from here.
  void WatchRegistry(const metrics::Registry* registry) {
    registry_ = registry;
  }
  /// Trace-side detectors (migration-flap) scan new events incrementally.
  void WatchTrace(const trace::TraceBuffer* buffer) { trace_ = buffer; }
  /// Firings are recorded as kAnomaly events attributed to `host` (the
  /// watchdog is fleet-scoped; by convention the primary server's host id).
  void SetTracer(trace::Tracer tracer, HostId host) {
    tracer_ = tracer;
    host_ = host;
  }
  /// Registers obs.* counters (total + one per detector kind).
  void AttachMetrics(metrics::Registry& registry,
                     const std::string& prefix = "obs.");

  /// staleness-slo: gate `histogram` (microsecond staleness samples) at
  /// `budget` — for polling sessions, poll_period + 2*RTT.
  void AddStalenessSlo(const std::string& histogram, Duration budget);
  /// shard-imbalance: watch the named occupancy probes as one shard group.
  void WatchShardGroup(const std::string& label,
                       std::vector<std::string> probe_names);
  /// Invoked on every firing, after the trace event and counters. The flight
  /// recorder hooks in here.
  void SetOnAnomaly(std::function<void(const Anomaly&)> fn) {
    on_anomaly_ = std::move(fn);
  }

  /// Starts the periodic scan loop (idempotent).
  void Start();
  void Stop() { running_ = false; }
  /// One synchronous detector pass at the current sim time. Called by the
  /// loop; exposed so tests and shutdown paths can scan deterministically.
  void ScanNow();

  const std::vector<Anomaly>& anomalies() const { return anomalies_; }
  const ObsConfig& config() const { return config_; }
  const std::vector<std::pair<std::string, Duration>>& slos() const {
    return slos_;
  }

 private:
  struct ShardGroup {
    std::string label;
    std::vector<std::string> probe_names;
    bool latched = false;
  };

  sim::Task<void> Loop();
  void Raise(AnomalyKind kind, HostId host, std::uint64_t fsid,
             std::uint64_t ino, double value, double threshold,
             std::string detail);
  double SumProbesWithSuffix(const std::string& suffix) const;

  void ScanRecallStorm();
  void ScanStalenessSlo();
  void ScanMigrationFlap();
  void ScanInvOverflow();
  void ScanShardImbalance();

  sim::Scheduler& sched_;
  ObsConfig config_;
  const metrics::Registry* registry_ = nullptr;
  const trace::TraceBuffer* trace_ = nullptr;
  trace::Tracer tracer_;
  HostId host_ = kInvalidHost;
  bool running_ = false;

  std::vector<std::pair<std::string, Duration>> slos_;
  std::vector<bool> slo_latched_;
  std::vector<ShardGroup> shard_groups_;
  std::function<void(const Anomaly&)> on_anomaly_;

  // Detector state between scans.
  double prev_recalls_ = 0;
  bool have_prev_recalls_ = false;
  double prev_wraps_ = 0;
  bool have_prev_wraps_ = false;
  double prev_occupancy_ = 0;
  int occupancy_rising_ = 0;
  std::uint64_t trace_cursor_ = 0;  // global index of the next unseen event
  std::map<std::tuple<HostId, std::uint64_t, std::uint64_t>,
           std::deque<SimTime>>
      migrations_;

  metrics::Counter* total_counter_ = nullptr;
  std::vector<metrics::Counter*> kind_counters_;

  std::vector<Anomaly> anomalies_;
};

}  // namespace gvfs::obs
