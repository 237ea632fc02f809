// gvfs-doctor: post-mortem diagnosis of consistency runs.
//
// The doctor consumes a flight-recorder snapshot (.gvfsdump, see
// src/obs/dump.h) — or raw run artifacts: a Chrome trace written by
// --trace-out, a metrics time series written by --metrics-out — and turns it
// into a diagnosis:
//
//   - re-runs every TraceChecker protocol invariant over the captured ring,
//   - lifts the recorded (and trace-embedded) anomaly firings into verdicts
//     with a per-detector remedy line,
//   - reconstructs per-file consistency timelines (delegation grants and
//     recalls, buffered/applied invalidations, policy migrations) so the
//     report names the offending file handles and migrations directly,
//   - renders the result as a human-readable report and a machine-readable
//     JSON verdict.
//
// Exit-code contract of the CLI (main.cpp): 0 healthy, 1 findings
// (violations or anomalies), 2 unusable input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/anomaly.h"
#include "obs/dump.h"
#include "trace/checker.h"

namespace gvfs::doctor {

/// One remedy line per detector kind. This table is a gvfs-lint
/// anomaly-coverage anchor: every obs::AnomalyKind must have a case here.
const char* VerdictFor(obs::AnomalyKind kind);

/// Per-file consistency history distilled from the trace ring.
struct FileTimeline {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;
  std::uint64_t events = 0;  // all trace events touching this file
  std::uint64_t grants = 0;         // server-side kDelegGrant
  std::uint64_t recalls = 0;        // server-side kDelegRecall
  std::uint64_t invs_buffered = 0;  // kInvAppend
  std::uint64_t invs_applied = 0;   // kInvPoll on a host that buffered none
  std::uint64_t migrations = 0;     // client-side kPolicyMigrate
  /// Named by a violation or a file-scoped anomaly.
  bool flagged = false;
  /// Newest `kTimelineEntries` rendered event lines, oldest first.
  std::vector<std::string> tail;
};

struct DoctorReport {
  std::string source;  // path the dump/trace/series came from
  std::string reason;  // the dump's trigger ("anomaly: ...", "fixture: ...")
  SimTime time = 0;    // sim time of the snapshot

  std::uint64_t trace_events = 0;    // events available to the replay
  std::uint64_t trace_recorded = 0;  // producer-side total
  std::uint64_t trace_dropped = 0;   // lost to ring overflow
  std::uint64_t trace_omitted = 0;   // left out of the dump itself

  std::vector<trace::Violation> violations;
  std::vector<obs::Anomaly> anomalies;
  std::vector<std::string> warnings;  // checker caveats + ingest caveats
  std::vector<FileTimeline> files;    // flagged first, then busiest

  bool healthy() const { return violations.empty() && anomalies.empty(); }
};

/// Re-checks invariants, lifts anomalies, and builds the timelines.
DoctorReport Diagnose(const obs::DumpFile& dump);

/// Human-readable report (the CLI's stdout).
std::string RenderHuman(const DoctorReport& report);

/// Machine-readable verdict (--json-out).
std::string RenderJson(const DoctorReport& report);

/// Ingests a Chrome trace (trace::ChromeTraceWriter output) as a synthetic
/// DumpFile: instant events round-trip losslessly; RPC spans are collapsed
/// views the exporter already consumed, so the DRC re-execution invariant
/// cannot be re-checked (a warning records this). Returns false on
/// unreadable/malformed input.
bool ReadChromeTrace(const std::string& path, obs::DumpFile* out,
                     std::string* error);

/// Ingests a metrics time series (metrics::TimeSeriesJson output) as a
/// synthetic DumpFile: the final sample's *.staleness_us.p99 columns are
/// gated against `staleness_budget` (0 = report only) and *.inv_wraps > 0
/// becomes an inv-overflow finding. Returns false on unreadable input.
bool ReadMetricsSeries(const std::string& path, Duration staleness_budget,
                       obs::DumpFile* out, std::string* error);

}  // namespace gvfs::doctor
