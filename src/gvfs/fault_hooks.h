// Fault injection for the trace checker's negative tests. Each hook breaks
// one protocol invariant on purpose, so a test (or gvfs-doctor's seeded
// fixture) can prove the checker catches the violation. The hooks live
// outside every production config: the proxy server and the aggregation
// tier take a `const FaultHooks*` that is null unless a test asked the
// testbed for faults (Testbed::InjectFaults).
#pragma once

namespace gvfs::proxy {

struct FaultHooks {
  /// Proxy server: grant delegations without recalling conflicting holders,
  /// breaking the §4.3 single-writer invariant (kConflictingDelegation).
  bool skip_recalls = false;
  /// Proxy server: switch a file's mode on MIGRATE without draining the
  /// caller's buffered invalidations, so a mutation buffered before the
  /// switch becomes invisible after it (kPolicyMigration).
  bool skip_drain = false;
  /// Aggregation tier: skip the fan-out to one registered client while
  /// still claiming a full ingest — a LOST invalidation (kAggTier).
  bool drop_fanout = false;
  /// Aggregation tier: fan the same handle out twice to one client — a
  /// DUPLICATED invalidation (kAggTier).
  bool duplicate_fanout = false;
};

}  // namespace gvfs::proxy
