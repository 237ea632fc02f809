// GETINV aggregation tier (§4.2 scaled out; cf. Fletch's hierarchical
// metadata caching and Syndicate's acquisition-gateway split).
//
// An InvAggregator fronts many proxy clients' invalidation polls: clients
// point SessionConfig::getinv_targets at the aggregator instead of polling
// every shard, and the aggregator folds the whole fleet's GETINV fan-in
// into ONE batched upstream poll per shard per period. Received handles are
// fanned back out into per-downstream-client buffers with the same
// coalescing / wrap-around semantics as the proxy server's own buffers, so
// a client cannot tell whether it is polling a server or the tier.
//
// Escalation is preserved end to end: an upstream force-invalidate (shard
// buffer wrapped while the aggregator was partitioned, shard restart) or a
// downstream buffer overflow breaks the incremental stream for the affected
// client(s), who are then served a whole-cache invalidation on their next
// poll — never a silently truncated handle list.
//
// Trace discipline (checked by TraceChecker invariant 5, kAggTier): per
// upstream handle the aggregator emits one kAggFanout per registered
// downstream client and then one kAggIngest; serving emits kAggDeliver per
// handle plus one kAggServe (kInvForce for whole-cache serves; kInvWrap
// marks a broken stream). The checker replays these to prove no
// invalidation is lost or duplicated crossing the tier.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gvfs/fault_hooks.h"
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

  /// Per-downstream-client buffer capacity; overflow breaks the client's
  /// incremental stream and escalates to a whole-cache invalidation.
  std::size_t inv_buffer_capacity = 8192;
};

// Counter table (metrics/registry.h): each row is an InvAggregatorStats
// member and the probe `<prefix><name>` AttachMetrics registers.
//  - upstream_polls / upstream_forces: GETINV RPCs issued to shards, and the
//    shard-side force-invalidates they returned;
//  - getinv_served: downstream GETINV polls served; handles_ingested /
//    handles_fanned_out / handles_delivered: handles received from shards,
//    appended to downstream buffers, and served to clients;
//  - force_invalidations: whole-cache serves downstream; inv_wraps:
//    downstream buffer overflows; inv_entries_peak: high-water mark of total
//    buffered entries across downstream clients.
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
  std::size_t DownstreamClients() const { return clients_.size(); }

  /// Registers live telemetry (buffer gauges + the counters above) under
  /// `prefix`.
  void AttachMetrics(metrics::Registry& registry, const std::string& prefix);

 private:
  struct Entry {
    std::uint64_t timestamp;
    nfs3::Fh fh;
  };

  /// Per-downstream-client buffer, mirroring ProxyServer::InvClient.
  struct Downstream {
    std::deque<Entry> buffer;
    std::set<nfs3::Fh> pending;  // coalescing: one entry per file
    std::uint64_t last_acked = 0;
    /// Incremental stream broken (local overflow or upstream force); the
    /// next poll is served a whole-cache invalidation.
    bool overflowed = false;
  };

  sim::Task<Bytes> HandleGetInv(rpc::CallContext ctx, rpc::Body args);

  sim::Task<void> PollLoop();
  sim::Task<void> PollShardOnce(std::size_t shard_index);

  /// Absorbs one upstream handle: fan out to every registered downstream
  /// client, then stamp the ingest marker.
  void Ingest(const nfs3::Fh& fh, HostId shard_host);
  /// Appends one handle to one downstream buffer (with coalescing and
  /// overflow handling). Returns true when an entry was appended.
  bool Fanout(const net::Address& client, Downstream& state,
              const nfs3::Fh& fh);
  /// Upstream force-invalidate: break every downstream client's stream.
  void EscalateForce(std::uint64_t upstream_timestamp);

  sim::Scheduler& sched_;
  rpc::RpcNode& node_;
  InvAggregatorConfig config_;
  proxy::FaultHooks faults_;  // all off unless a test injected faults

  std::map<net::Address, Downstream> clients_;
  /// The aggregator's own logical clock for downstream timestamps; starts
  /// at 1 (0 is the bootstrap null timestamp), like the server's.
  std::uint64_t agg_clock_ = 1;
  /// Last-seen upstream timestamp per shard (index-parallel to shards).
  std::vector<std::uint64_t> shard_timestamps_;
  std::size_t inv_entries_ = 0;  // total buffered entries, all clients

  bool running_ = false;
  std::uint64_t epoch_ = 0;

  InvAggregatorStats stats_;
};

}  // namespace gvfs::fleet
