// GETINV aggregation tier (§4.2 scaled out; cf. Fletch's hierarchical
// metadata caching and Syndicate's acquisition-gateway split).
//
// An InvAggregator fronts many proxy clients' invalidation polls: clients
// point SessionConfig::getinv_targets at the aggregator instead of polling
// every shard, and the aggregator folds the whole fleet's GETINV fan-in
// into ONE batched upstream poll per shard per period. Received handles are
// appended to the same invalidation log the proxy server uses
// (gvfs/inv_log.h) — stored once, with a cursor per downstream client — so
// a client cannot tell whether it is polling a server or the tier.
//
// Escalation is preserved end to end: an upstream force-invalidate (the
// aggregator's stream broke at the shard while it was partitioned, shard
// restart) or a downstream overflow breaks the incremental stream for the
// affected client(s), who are then served a whole-cache invalidation on
// their next poll — never a silently truncated handle list.
//
// Trace discipline (checked by TraceChecker invariant 5, kAggTier): per
// upstream handle the aggregator emits one kAggFanout per registered
// downstream client and then one kAggIngest; serving emits kAggDeliver per
// handle plus one kAggServe (kInvForce for whole-cache serves; kInvWrap
// marks a broken stream). The checker replays these to prove no
// invalidation is lost or duplicated crossing the tier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "gvfs/fault_hooks.h"
#include "gvfs/inv_log.h"
#include "gvfs/proto.h"
#include "gvfs/session.h"
#include "metrics/registry.h"
#include "net/network.h"
#include "nfs3/proto.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace gvfs::fleet {

/// NOTE: ctors are user-declared (non-aggregate) on purpose — the GCC 12
/// by-value coroutine parameter rule (see rpc::CallOptions).
struct InvAggregatorConfig {
  InvAggregatorConfig() = default;
  InvAggregatorConfig(const InvAggregatorConfig&) = default;
  InvAggregatorConfig(InvAggregatorConfig&&) noexcept = default;
  InvAggregatorConfig& operator=(const InvAggregatorConfig&) = default;
  InvAggregatorConfig& operator=(InvAggregatorConfig&&) noexcept = default;

  /// Upstream proxy-server shards this aggregator polls.
  std::vector<net::Address> shards;

  /// Upstream batching period: one GETINV (plus poll-again continuations)
  /// per shard per period, regardless of downstream client count.
  Duration poll_period = Seconds(30);

  /// Max handles per downstream GETINV reply (bigger sets poll again).
  std::uint32_t getinv_batch = 512;

  /// Per-downstream-client owed-entry capacity; overflow breaks the client's
  /// incremental stream and escalates to a whole-cache invalidation.
  std::size_t inv_buffer_capacity = 8192;
};

// Counter table (metrics/registry.h): each row is an InvAggregatorStats
// member and the probe `<prefix><name>` AttachMetrics registers.
//  - upstream_polls / upstream_forces: GETINV RPCs issued to shards, and the
//    shard-side force-invalidates they returned;
//  - getinv_served: downstream GETINV polls served; handles_ingested /
//    handles_fanned_out / handles_delivered: handles received from shards,
//    owed to downstream clients (one per client an append reaches), and
//    served to clients;
//  - force_invalidations: whole-cache serves downstream; inv_wraps:
//    downstream streams broken by overflow, once per break;
//    inv_entries_peak: high-water mark of the entries the log stores.
#define GVFS_INV_AGGREGATOR_STATS(X)    \
  X(upstream_polls)                     \
  X(upstream_forces)                    \
  X(getinv_served)                      \
  X(handles_ingested)                   \
  X(handles_fanned_out)                 \
  X(handles_delivered)                  \
  X(force_invalidations)                \
  X(inv_wraps)                          \
  X(inv_entries_peak)

struct InvAggregatorStats {
  GVFS_COUNTER_TABLE(InvAggregatorStats, GVFS_INV_AGGREGATOR_STATS)
};

class InvAggregator {
 public:
  /// `node` is the aggregator's RPC endpoint; it serves GETINV downstream
  /// and polls the configured shards upstream.
  /// `faults` is null except in fault-injection tests (gvfs/fault_hooks.h).
  InvAggregator(sim::Scheduler& sched, rpc::RpcNode& node,
                InvAggregatorConfig config,
                const proxy::FaultHooks* faults = nullptr);

  /// Starts the upstream poll loop (bootstrap poll immediately, then one
  /// batched poll per shard per period).
  void Start();

  /// Stops the poll loop (session teardown).
  void Stop();

  const InvAggregatorConfig& config() const { return config_; }
  const InvAggregatorStats& stats() const { return stats_; }
  std::size_t DownstreamClients() const { return inv_log_.clients(); }

  /// Registers live telemetry (log gauges + the counters above) under
  /// `prefix`.
  void AttachMetrics(metrics::Registry& registry, const std::string& prefix);

  /// Tier state for the flight recorder (obs/recorder.h): the log's
  /// downstream cursors, broken streams included.
  JsonObject SnapshotState() const;

 private:
  sim::Task<Bytes> HandleGetInv(rpc::CallContext ctx, rpc::Body args);

  sim::Task<void> PollLoop();
  sim::Task<void> PollShardOnce(std::size_t shard_index);

  /// Absorbs one upstream handle: append it to the log (one kAggFanout per
  /// downstream client it reaches), then stamp the ingest marker.
  void Ingest(const nfs3::Fh& fh, HostId shard_host);

  sim::Scheduler& sched_;
  rpc::RpcNode& node_;
  InvAggregatorConfig config_;

  /// Downstream invalidations on the aggregator's own clock: timestamps
  /// stay dense and monotone however the shards' clocks interleave.
  InvLog inv_log_;
  /// Last-seen upstream timestamp per shard (index-parallel to shards).
  std::vector<std::uint64_t> shard_timestamps_;

  bool running_ = false;
  std::uint64_t epoch_ = 0;

  InvAggregatorStats stats_;
};

}  // namespace gvfs::fleet
