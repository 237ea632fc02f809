// GVFS proxy client (§4 of the paper).
//
// Runs on each client host between the unmodified kernel NFS client
// (loopback) and the session's proxy server (WAN). Serves kernel requests
// from its disk cache whenever the session's consistency model says the
// cached state is valid:
//
//  - Invalidation polling (§4.2): entries valid until a GETINV poll
//    invalidates them; a background poller with optional exponential
//    back-off keeps the window bounded.
//  - Delegation/callback (§4.3): entries valid while a per-file delegation
//    is held; delegations renew by letting a request bypass the cache before
//    they expire, and are revoked by server callbacks (read recalls
//    invalidate; write recalls force write-back, with the §4.3.2 block-list
//    optimization for large dirty sets).
//
// Write-back mode additionally absorbs WRITE/COMMIT into the disk cache and
// flushes lazily (periodic flusher, recalls, shutdown).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/flat_map.h"
#include "common/json_writer.h"
#include "gvfs/disk_cache.h"
#include "gvfs/proto.h"
#include "gvfs/session.h"
#include "metrics/registry.h"
#include "metrics/staleness.h"
#include "nfs3/client.h"
#include "nfs3/proto.h"
#include "policy/policy.h"
#include "rpc/rpc.h"
#include "sim/concurrency.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace gvfs::proxy {

// Counter table (metrics/registry.h): each row is a ProxyClientStats member
// and the probe `<prefix><name>` AttachMetrics registers.
//  - blocks_prefetched: blocks brought in by sequential read-ahead (served
//    the next fault); prefetches_discarded: prefetch replies dropped because
//    the file was invalidated or changed mid-flight;
//  - migrations: adaptive sessions' MIGRATE handshakes this client completed.
#define GVFS_PROXY_CLIENT_STATS(X)      \
  X(served_locally)                     \
  X(forwarded)                          \
  X(polls)                              \
  X(invalidations_applied)              \
  X(force_invalidations)                \
  X(callbacks_received)                 \
  X(blocks_flushed)                     \
  X(blocks_prefetched)                  \
  X(prefetches_discarded)               \
  X(migrations)

struct ProxyClientStats {
  GVFS_COUNTER_TABLE(ProxyClientStats, GVFS_PROXY_CLIENT_STATS)
};

class ProxyClient {
 public:
  /// `node` is this proxy's endpoint: it serves the local kernel client's
  /// NFS calls and the server's CALLBACK RPCs, and issues upstream calls to
  /// `server` (the session's proxy server).
  ProxyClient(sim::Scheduler& sched, rpc::RpcNode& node, net::Address server,
              SessionConfig config);

  /// Starts background tasks (invalidation poller, write-back flusher).
  void Start();

  /// Flushes dirty data and stops background tasks (session teardown).
  sim::Task<void> Shutdown();

  /// Writes all dirty blocks upstream (e.g. before evaluating server state).
  sim::Task<void> FlushAll();

  /// Crash simulation: loses in-memory state (validity, delegations,
  /// timestamp); the disk cache's data and dirty flags survive.
  void Crash();

  /// Restart after a crash: rescans the disk cache, invalidates attributes,
  /// and writes back one block per dirty file to reacquire delegations and
  /// detect conflicts (§4.3.4). Conflicted files' dirty data is discarded.
  sim::Task<void> Recover();

  const SessionConfig& config() const { return config_; }
  const ProxyClientStats& stats() const { return stats_; }
  DiskCache& cache() { return cache_; }
  bool running() const { return running_; }

  /// Registers this proxy's live telemetry (pull probes over the counters
  /// above plus cache occupancy / write-back depth) under `prefix`, and
  /// attaches the per-session staleness probe consulted on every cached
  /// read-class serve. `probe` may be null (no staleness measurement).
  void AttachMetrics(metrics::Registry& registry, const std::string& prefix,
                     metrics::StalenessProbe* probe);

  /// Files whose cached dirty data was found conflicted during recovery.
  const std::vector<nfs3::Fh>& corrupted_files() const { return corrupted_; }

  /// Adaptive sessions only (null otherwise): the per-file policy engine
  /// driving runtime migrations between polling and delegation.
  policy::PolicyEngine* policy() { return policy_.get(); }

  /// Protocol-state snapshot for the flight recorder (obs/recorder.h): held
  /// delegations, poll-target timestamps, cache/write-back occupancy and
  /// the policy engine's per-file FSM states when adaptive.
  JsonObject SnapshotState() const;

  /// Switches `fh` between consistency modes with the owning shard:
  /// drains/flushes under the old mode, sends MIGRATE, applies any drained
  /// invalidations and the granted delegation. Returns false if the
  /// handshake did not complete (the old mode stays authoritative).
  sim::Task<bool> MigrateMode(nfs3::Fh fh, policy::FileMode from,
                              policy::FileMode to);

 private:
  struct Delegation {
    DelegationType type = DelegationType::kNone;
    SimTime refreshed_at = 0;
  };

  // -- kernel-facing NFS handlers --
  // All take the RPC CallContext so the kernel call's span becomes the
  // parent of every upstream RPC the handler issues (one causal tree from
  // kernel client through proxy to server).
  sim::Task<Buf> HandleGetAttr(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleLookup(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleAccess(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleRead(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleWrite(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleCommit(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleCreate(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleMkdir(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleRemove(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleRmdir(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleRename(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleLink(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleSetAttr(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandlePassthrough(std::uint32_t proc, rpc::CallContext ctx,
                                   rpc::Body args);

  // -- server-facing callback handlers --
  sim::Task<Buf> HandleCallback(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleRecovery(rpc::CallContext ctx, rpc::Body args);

  /// Forwards a raw request upstream; strips and applies any delegation
  /// grant suffix for `granted_fh`. Returns the reply body (suffix removed),
  /// or nullopt on transport failure. `parent` chains the upstream call into
  /// the caller's trace (invalid => the call roots a new trace).
  sim::Task<std::optional<Buf>> Upstream(std::uint32_t proc, Buf args,
                                         std::optional<nfs3::Fh> granted_fh,
                                         std::string label,
                                         trace::SpanRef parent = {});

  /// Records a cached read-class serve into the session staleness probe.
  void RecordCachedRead(const nfs3::Fh& fh);

  /// Destination for an upstream call: the owning shard when the session is
  /// sharded and the call names a file handle, else the session server.
  net::Address UpstreamFor(const std::optional<nfs3::Fh>& fh) const;

  /// (Re)builds poll_targets_ from the session config.
  void InitPollTargets();

  /// True when the consistency model lets cached attributes answer locally.
  bool AttrServable(const nfs3::Fh& fh) const;
  /// Delegation model: do we hold a live (non-renewal-due) delegation?
  bool DelegationFresh(const nfs3::Fh& fh, bool need_write) const;
  void StoreGrant(const nfs3::Fh& fh, DelegationType type);
  void DropDelegation(const nfs3::Fh& fh);

  /// Applies post-op attributes from an upstream reply to the disk cache.
  void Absorb(const nfs3::Fh& fh, const nfs3::PostOpAttr& attr, bool own_write);

  /// Rebuilds the name cache of a changed directory with paginated READDIRs
  /// (one or two RPCs instead of one LOOKUP per name). Returns false if the
  /// directory state changed underneath us.
  sim::Task<bool> RefreshDirListing(nfs3::Fh dir, trace::SpanRef parent = {});

  // -- read-ahead --

  /// Launches background prefetches of the blocks after `index` (bounded by
  /// the configured window and the known file size).
  void MaybeReadAhead(const nfs3::Fh& fh, std::uint64_t index);
  sim::Task<void> Prefetch(nfs3::Fh fh, std::uint64_t index);

  // -- background tasks --
  sim::Task<void> PollLoop();
  sim::Task<void> PollOnce();
  sim::Task<void> FlushLoop();
  /// Adaptive sessions: closes one policy window per period and performs the
  /// migrations the engine proposes.
  sim::Task<void> PolicyLoop();

  // -- pipelined write-through (NFSv3 unstable-write contract) --

  /// Per-file state of asynchronously forwarded write-through WRITEs.
  struct AsyncWrites {
    explicit AsyncWrites(sim::Scheduler& sched) : in_flight(sched) {}
    sim::WaitGroup in_flight;
    /// Byte ranges currently in flight; an overlapping new write drains the
    /// window first (write-after-write order on the wire).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    /// Sticky failure flag, reported (and cleared) by the next COMMIT.
    bool failed = false;
  };

  AsyncWrites& AsyncWritesFor(const nfs3::Fh& fh);
  /// Forwards one unstable WRITE upstream inside the window.
  sim::Task<void> ForwardWriteAsync(nfs3::Fh fh, rpc::Body args, std::uint64_t start,
                                    std::uint64_t end);
  /// Joins every in-flight async WRITE of `fh` (no-op when none).
  sim::Task<void> DrainAsyncWrites(nfs3::Fh fh);

  /// Writes one dirty block upstream; returns false on failure. `parent`
  /// chains the WRITE into a recall's span when flushing under a callback.
  sim::Task<bool> FlushBlock(nfs3::Fh fh, std::uint64_t offset,
                             trace::SpanRef parent = {});
  /// Flushes every dirty block of `fh` through a window of up to
  /// `config_.wb_window` WRITEs in flight, then (optionally) one coalesced
  /// COMMIT. Concurrent flushes of the same file serialize on a per-file
  /// lock so per-block write-after-write order is preserved.
  sim::Task<void> FlushFile(nfs3::Fh fh, bool commit,
                            trace::SpanRef parent = {});
  /// Asynchronous remainder flush after a block-list callback reply.
  sim::Task<void> AsyncFlush(nfs3::Fh fh);
  /// §4.3.4 per-file recovery probe: GETATTR conflict check, then one-block
  /// write-back to reacquire the delegation.
  sim::Task<void> RecoverFile(nfs3::Fh fh);

  sim::Mutex& FlushLockFor(const nfs3::Fh& fh);

  sim::Scheduler& sched_;
  rpc::RpcNode& node_;
  nfs3::Nfs3Client upstream_;
  SessionConfig config_;
  DiskCache cache_;

  FlatMap<nfs3::Fh, Delegation, nfs3::FhHash> delegations_;
  /// Per-file flush serialization (never erased: a crashed flush task may
  /// still hold a reference; the map is bounded by the file population).
  /// Node-stable on purpose: a sim::Mutex cannot move and waiters hold it
  /// across co_await.
  std::map<nfs3::Fh, sim::Mutex> flush_locks_;
  /// Pipelined write-through tracking (never erased, same reason as above).
  /// Node-stable on purpose: iterators into it are held across co_await.
  std::map<nfs3::Fh, AsyncWrites> async_writes_;
  /// Window cap for async write-through forwarding, shared across files.
  sim::Semaphore wt_slots_{sched_,
                           config_.wb_window > 0 ? config_.wb_window : 1};
  /// Blocks with a prefetch READ in flight (suppresses duplicates); demand
  /// reads that miss on one of these join the prefetch via `prefetch_done_`
  /// instead of issuing their own upstream READ.
  /// Stays a tree: it holds only the blocks of prefetch READs in flight
  /// (none unless read-ahead is on), so a demand read's check is one or two
  /// node visits.
  std::set<std::pair<nfs3::Fh, std::uint64_t>> prefetch_inflight_;
  sim::Condition prefetch_done_{sched_};
  /// GETINV poll targets with per-target logical timestamps: the session
  /// server by default, every shard when the session is sharded, or the
  /// aggregation tier when SessionConfig::getinv_targets overrides.
  struct PollTarget {
    net::Address addr{};
    std::uint64_t timestamp = 0;
  };
  std::vector<PollTarget> poll_targets_;
  Duration poll_period_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;  // bumped on crash to cancel stale loops

  std::vector<nfs3::Fh> corrupted_;
  ProxyClientStats stats_;
  metrics::StalenessProbe* staleness_ = nullptr;
  /// Present only when config_.adaptive.
  std::unique_ptr<policy::PolicyEngine> policy_;
};

}  // namespace gvfs::proxy
