#include "obs/anomaly.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/sync.h"

namespace gvfs::obs {

const char* AnomalyKindName(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kRecallStorm:
      return "recall-storm";
    case AnomalyKind::kStalenessSlo:
      return "staleness-slo";
    case AnomalyKind::kMigrationFlap:
      return "migration-flap";
    case AnomalyKind::kInvOverflow:
      return "inv-overflow";
    case AnomalyKind::kShardImbalance:
      return "shard-imbalance";
  }
  return "?";
}

bool AnomalyKindFromName(const std::string& name, AnomalyKind* out) {
  for (const DetectorInfo& d : kDetectors) {
    if (name == d.name) {
      *out = d.kind;
      return true;
    }
  }
  return false;
}

const DetectorInfo kDetectors[kDetectorCount] = {
    {AnomalyKind::kRecallStorm, "recall-storm",
     "delegation recalls per window beyond the breaker threshold"},
    {AnomalyKind::kStalenessSlo, "staleness-slo",
     "p99 cached-read staleness above the poll_period + 2*RTT budget"},
    {AnomalyKind::kMigrationFlap, "migration-flap",
     "one file migrated repeatedly inside the flap window"},
    {AnomalyKind::kInvOverflow, "inv-overflow",
     "invalidation buffers wrapped or occupancy keeps rising"},
    {AnomalyKind::kShardImbalance, "shard-imbalance",
     "one shard carries a multiple of its peers' mean load"},
};

Watchdog::Watchdog(sim::Scheduler& sched, ObsConfig config)
    : sched_(sched), config_(config) {}

void Watchdog::AttachMetrics(metrics::Registry& registry,
                             const std::string& prefix) {
  total_counter_ = &registry.GetCounter(prefix + "anomalies");
  kind_counters_.clear();
  for (const DetectorInfo& d : kDetectors) {
    kind_counters_.push_back(
        &registry.GetCounter(prefix + "anomaly." + d.name));
  }
}

void Watchdog::AddStalenessSlo(const std::string& histogram, Duration budget) {
  slos_.emplace_back(histogram, budget);
  slo_latched_.push_back(false);
}

void Watchdog::WatchShardGroup(const std::string& label,
                               std::vector<std::string> probe_names) {
  shard_groups_.push_back(ShardGroup{label, std::move(probe_names), false});
}

void Watchdog::Start() {
  if (running_) return;
  running_ = true;
  sim::Spawn(Loop());
}

sim::Task<void> Watchdog::Loop() {
  while (running_) {
    co_await sim::Sleep(sched_, config_.watch_period);
    if (!running_) break;
    ScanNow();
  }
}

void Watchdog::Raise(AnomalyKind kind, HostId host, std::uint64_t fsid,
                     std::uint64_t ino, double value, double threshold,
                     std::string detail) {
  Anomaly a;
  a.kind = kind;
  a.time = sched_.Now();
  a.host = host;
  a.fsid = fsid;
  a.ino = ino;
  a.value = value;
  a.threshold = threshold;
  a.detail = std::move(detail);

  if (total_counter_ != nullptr) total_counter_->Inc();
  const auto idx = static_cast<std::size_t>(kind);
  if (idx < kind_counters_.size()) kind_counters_[idx]->Inc();
  tracer_.Anomaly(host != kInvalidHost ? host : host_, fsid, ino,
                  static_cast<std::uint32_t>(kind), value, threshold);
  anomalies_.push_back(a);
  if (on_anomaly_) on_anomaly_(anomalies_.back());
}

double Watchdog::SumProbesWithSuffix(const std::string& suffix) const {
  if (registry_ == nullptr) return 0;
  double sum = 0;
  for (const auto& [name, fn] : registry_->probes()) {
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    if (fn) sum += fn();
  }
  return sum;
}

void Watchdog::ScanNow() {
  ScanRecallStorm();
  ScanStalenessSlo();
  ScanMigrationFlap();
  ScanInvOverflow();
  ScanShardImbalance();
}

void Watchdog::ScanRecallStorm() {
  if (config_.recall_storm_threshold == 0 || registry_ == nullptr) return;
  const double recalls = SumProbesWithSuffix(".recalls_read") +
                         SumProbesWithSuffix(".recalls_write");
  const double delta = have_prev_recalls_ ? recalls - prev_recalls_ : recalls;
  prev_recalls_ = recalls;
  have_prev_recalls_ = true;
  if (delta < static_cast<double>(config_.recall_storm_threshold)) return;
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%.0f delegation recalls in one %.1fs window (threshold %" PRIu64
                ")",
                delta, ToSeconds(config_.watch_period),
                config_.recall_storm_threshold);
  Raise(AnomalyKind::kRecallStorm, kInvalidHost, 0, 0, delta,
        static_cast<double>(config_.recall_storm_threshold), detail);
}

void Watchdog::ScanStalenessSlo() {
  if (registry_ == nullptr) return;
  for (std::size_t i = 0; i < slos_.size(); ++i) {
    const auto& [name, budget] = slos_[i];
    auto it = registry_->histograms().find(name);
    if (it == registry_->histograms().end()) continue;
    const metrics::LogHistogram& hist = it->second.hist();
    if (hist.count() == 0) continue;
    const auto p99 = static_cast<double>(hist.Percentile(99));
    const auto budget_us = static_cast<double>(budget / kMicrosecond);
    const bool over = p99 > budget_us;
    if (!over) {
      slo_latched_[i] = false;
      continue;
    }
    if (slo_latched_[i]) continue;  // fire once until it recovers
    slo_latched_[i] = true;
    char detail[192];
    std::snprintf(detail, sizeof(detail),
                  "%s p99 staleness %.0fus exceeds the %.0fus "
                  "poll_period + 2*RTT budget",
                  name.c_str(), p99, budget_us);
    Raise(AnomalyKind::kStalenessSlo, kInvalidHost, 0, 0, p99, budget_us,
          detail);
  }
}

void Watchdog::ScanMigrationFlap() {
  if (trace_ == nullptr) return;
  // Incremental scan of events that arrived since the last pass. Events the
  // ring already overwrote are simply skipped — the metrics detectors do not
  // depend on them and a flap, by definition, is recent.
  const std::uint64_t recorded = trace_->recorded();
  const std::uint64_t oldest = recorded - trace_->size();
  std::uint64_t start = std::max(trace_cursor_, oldest);
  const SimTime now = sched_.Now();
  for (; start < recorded; ++start) {
    const trace::Event& ev =
        trace_->at(static_cast<std::size_t>(start - oldest));
    if (ev.type != trace::EventType::kPolicyMigrate) continue;
    // Count each handshake once: the client-side completion record.
    if ((ev.u.policy.flags & trace::kPolicyFlagServerSide) != 0) continue;
    auto& times = migrations_[{ev.host, ev.u.policy.fsid, ev.u.policy.ino}];
    times.push_back(ev.time);
  }
  trace_cursor_ = recorded;
  for (auto& [key, times] : migrations_) {
    while (!times.empty() && times.front() < now - kFlapWindow) {
      times.pop_front();
    }
    if (times.size() < kFlapThreshold) continue;
    const auto& [host, fsid, ino] = key;
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "file %" PRIu64 ":%" PRIu64 " on host %u migrated %zu times "
                  "within %.1fs (threshold %u)",
                  fsid, ino, host, times.size(),
                  ToSeconds(kFlapWindow), kFlapThreshold);
    Raise(AnomalyKind::kMigrationFlap, host, fsid, ino,
          static_cast<double>(times.size()),
          static_cast<double>(kFlapThreshold), detail);
    times.clear();  // re-arm this file
  }
}

void Watchdog::ScanInvOverflow() {
  if (registry_ == nullptr) return;
  const double wraps = SumProbesWithSuffix(".inv_wraps");
  const double delta = have_prev_wraps_ ? wraps - prev_wraps_ : wraps;
  prev_wraps_ = wraps;
  have_prev_wraps_ = true;
  if (delta >= static_cast<double>(kOverflowWraps)) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "%.0f invalidation-buffer wrap(s) in one window — "
                  "affected clients owe whole-cache invalidations",
                  delta);
    Raise(AnomalyKind::kInvOverflow, kInvalidHost, 0, 0, delta,
          static_cast<double>(kOverflowWraps), detail);
  }
  const double occupancy = SumProbesWithSuffix(".inv_buffer_entries");
  if (occupancy > prev_occupancy_ && occupancy >= kOccupancyFloor) {
    if (++occupancy_rising_ >= kOccupancyTrendWindows) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "invalidation-buffer occupancy rose for %d consecutive "
                    "windows, now %.0f entries",
                    occupancy_rising_, occupancy);
      Raise(AnomalyKind::kInvOverflow, kInvalidHost, 0, 0, occupancy,
            kOccupancyFloor, detail);
      occupancy_rising_ = 0;  // re-arm the trend
    }
  } else {
    occupancy_rising_ = 0;
  }
  prev_occupancy_ = occupancy;
}

void Watchdog::ScanShardImbalance() {
  if (registry_ == nullptr) return;
  for (ShardGroup& group : shard_groups_) {
    if (group.probe_names.size() < 2) continue;
    double max_v = 0, sum = 0;
    std::size_t max_i = 0;
    for (std::size_t i = 0; i < group.probe_names.size(); ++i) {
      double v = 0;
      auto it = registry_->probes().find(group.probe_names[i]);
      if (it != registry_->probes().end() && it->second) v = it->second();
      sum += v;
      if (v > max_v) {
        max_v = v;
        max_i = i;
      }
    }
    const double mean =
        sum / static_cast<double>(group.probe_names.size());
    const bool over = max_v >= kImbalanceMin && mean > 0 &&
                      max_v / mean >= kImbalanceRatio;
    if (!over) {
      group.latched = false;
      continue;
    }
    if (group.latched) continue;
    group.latched = true;
    char detail[192];
    std::snprintf(detail, sizeof(detail),
                  "shard group %s: %s holds %.0f entries vs group mean %.1f "
                  "(ratio %.1f, threshold %.1f)",
                  group.label.c_str(), group.probe_names[max_i].c_str(), max_v,
                  mean, max_v / mean, kImbalanceRatio);
    Raise(AnomalyKind::kShardImbalance, kInvalidHost, 0, 0, max_v / mean,
          kImbalanceRatio, detail);
  }
}

}  // namespace gvfs::obs
