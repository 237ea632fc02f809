// Adaptive consistency policy engine (ROADMAP item 3): makes the paper's
// "application-tailored" consistency self-tuning. A session starts every
// file under invalidation polling; this engine watches the per-file access
// pattern the proxy client observes (reads, writes, remote invalidations,
// delegation recalls), classifies each file once per policy window, and
// decides when a file should migrate between invalidation polling, a read
// delegation, and a write delegation at runtime.
//
// The engine is a pure decision component: it never talks to the network.
// The proxy client feeds it observations (OnRead/OnWrite/OnInvalidation/
// OnRecall), asks it for migrations (Tick), performs the MIGRATE handshake
// with the owning server shard, and confirms the switch (Commit). Keeping
// the FSM transport-free makes every transition unit-testable without a
// testbed and keeps this library a leaf below src/gvfs.
//
// Stability machinery:
//  - hysteresis: a migration is proposed only when two consecutive policy
//    windows classify the file into the same target mode, so one bursty
//    window cannot flip a file;
//  - dwell: after a migration the file is pinned to its new mode for a
//    minimum time, damping ping-pong between modes;
//  - recall-storm breaker: when the recalls this client observes (OnRecall)
//    jump by more than a threshold inside one window, promotions freeze for
//    a cool-down while demotions keep running — delegation load sheds
//    instead of compounding. The count is the client's own, so turning
//    metrics on never changes a decision.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/types.h"
#include "metrics/registry.h"
#include "trace/trace.h"

namespace gvfs::policy {

/// File identity as raw (fsid, ino), mirroring src/trace: this library must
/// not depend on nfs3::Fh.
struct FileId {
  std::uint64_t fsid = 0;
  std::uint64_t ino = 0;

  friend bool operator<(const FileId& a, const FileId& b) {
    return a.fsid != b.fsid ? a.fsid < b.fsid : a.ino < b.ino;
  }
  friend bool operator==(const FileId& a, const FileId& b) {
    return a.fsid == b.fsid && a.ino == b.ino;
  }
};

/// Per-file consistency mode. Numeric values order modes by strength and
/// match proxy::DelegationType for the delegation modes, so the MIGRATE wire
/// encoding and grant mapping are direct casts.
enum class FileMode : std::uint32_t {
  kPolling = 0,
  kReadDelegation = 1,
  kWriteDelegation = 2,
};

const char* FileModeName(FileMode mode);

/// Observed access pattern of one file over one policy window.
enum class AccessClass {
  kIdle,          // no traffic: hold the current mode
  kReadShared,    // read-only locally (remote writes OK) -> read delegation
  kSingleWriter,  // local writes, no remote writers -> write delegation
  kWriteHot,      // single-writer with a heavy write rate -> write delegation
  kContended,     // recalls, or write-write sharing -> polling
};

const char* AccessClassName(AccessClass cls);

// Counter table (metrics/registry.h): each row is a PolicyStats member and
// the probe `<prefix>policy_<name>` AttachMetrics registers. decisions counts
// per-file classifications (one per tracked file per Tick);
// promotions_frozen, promotions the storm breaker held back; storm_freezes,
// times the breaker tripped.
#define GVFS_POLICY_STATS(X)            \
  X(decisions)                          \
  X(promotions)                         \
  X(demotions)                          \
  X(promotions_frozen)                  \
  X(storm_freezes)

struct PolicyStats {
  GVFS_COUNTER_TABLE(PolicyStats, GVFS_POLICY_STATS)
};

struct PolicyConfig {
  /// Minimum time a file keeps its mode after a migration.
  Duration dwell = Seconds(10);
  /// Reads per window before a read-shared file earns a read delegation.
  std::uint32_t promote_reads = 4;
  /// Writes per window before a single-writer file earns a write delegation.
  std::uint32_t write_hot = 3;
  /// Recall-count jump per window that trips the storm breaker.
  std::uint32_t storm_recalls = 8;
  /// How long promotions stay frozen once the breaker trips.
  Duration storm_freeze = Seconds(30);
  /// Whether write-delegation targets are ever proposed. A write delegation
  /// only pays when the cache can absorb writes locally (write-back
  /// sessions); under write-through it adds recall traffic for nothing, so
  /// the proxy client clears this for kReadOnly sessions.
  bool write_delegation = true;
};

/// A migration the engine wants the proxy client to perform.
struct Migration {
  FileId file;
  FileMode from = FileMode::kPolling;
  FileMode to = FileMode::kPolling;
};

class PolicyEngine {
 public:
  explicit PolicyEngine(PolicyConfig config = {});

  /// Observation hooks, called by the proxy client on its own request path.
  void OnRead(const FileId& file);
  void OnWrite(const FileId& file);
  /// A remote invalidation for the file was applied (GETINV delivery).
  void OnInvalidation(const FileId& file);
  /// A delegation on the file was recalled out from under this client.
  void OnRecall(const FileId& file);

  /// Closes the current policy window: classifies every tracked file,
  /// updates the storm breaker, and returns the migrations that cleared
  /// hysteresis + dwell. The caller performs each MIGRATE handshake and
  /// calls Commit() per file that actually switched.
  std::vector<Migration> Tick(SimTime now);

  /// Confirms that `file` now runs under `to` (the handshake succeeded).
  void Commit(const FileId& file, FileMode to, SimTime now);

  /// Current mode of a file (kPolling when never tracked).
  FileMode ModeOf(const FileId& file) const;

  /// Classification of the access counters accumulated so far in the open
  /// window (exposed for tests; Tick uses the same function).
  AccessClass ClassifyOpenWindow(const FileId& file) const;

  bool frozen() const { return frozen_now_; }

  /// Counters and gauges as probes named `<prefix>policy_<name>` (e.g.
  /// "s0.c1.policy_decisions").
  void AttachMetrics(metrics::Registry& registry, const std::string& prefix);

  /// Enables kPolicyDecide tracing, stamped with this client's host id.
  void SetTracer(trace::Tracer tracer, HostId host);

  std::uint64_t decisions() const { return stats_.decisions; }
  std::uint64_t promotions() const { return stats_.promotions; }
  std::uint64_t demotions() const { return stats_.demotions; }
  std::uint64_t promotions_frozen() const { return stats_.promotions_frozen; }
  std::uint64_t storm_freezes() const { return stats_.storm_freezes; }

  /// Per-file FSM snapshot for the flight recorder (obs/recorder.h): every
  /// tracked file's mode, hysteresis target, dwell anchor and open-window
  /// counters, plus the breaker state.
  JsonObject SnapshotState() const;

 private:
  struct PolicyState {
    FileMode mode = FileMode::kPolling;
    /// Target classified in the previous window (hysteresis: the current
    /// window must agree before a migration is proposed).
    FileMode prev_target = FileMode::kPolling;
    bool has_prev_target = false;
    SimTime migrated_at = 0;
    bool ever_migrated = false;
    // Open-window access counters, reset every Tick.
    std::uint32_t reads = 0;
    std::uint32_t writes = 0;
    std::uint32_t remote_invs = 0;
    std::uint32_t recalls = 0;
  };

  AccessClass Classify(const PolicyState& s) const;
  /// Desired mode for a classification; kIdle holds the current mode.
  FileMode TargetFor(const PolicyState& s, AccessClass cls) const;
  PolicyConfig config_;
  std::map<FileId, PolicyState> files_;

  SimTime frozen_until_ = 0;
  bool frozen_now_ = false;
  /// Recalls observed (OnRecall) in total, and at the last Tick.
  std::uint64_t recalls_ = 0;
  std::uint64_t recalls_at_tick_ = 0;

  PolicyStats stats_;

  trace::Tracer tracer_;
  HostId host_ = kInvalidHost;
};

}  // namespace gvfs::policy
