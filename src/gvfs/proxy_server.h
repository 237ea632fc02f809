// GVFS proxy server (§4 of the paper).
//
// Sits in front of the kernel NFS server (loopback on the server host) and
// serves one GVFS session's proxy clients over the WAN. Responsibilities:
//
//  - Forward NFS requests upstream, observing every mutation.
//  - Invalidation polling (§4.2): one log of logically timestamped handles
//    with a cursor per client (gvfs/inv_log.h), served via GETINV with
//    bootstrap, overflow (force-invalidate) and batching (poll-again)
//    handling.
//  - Delegation/callback (§4.3): speculates opens from read/write traffic,
//    grants per-file read/write delegations (piggybacked on replies), recalls
//    them with server-to-client CALLBACK RPCs on conflicts, tracks write-back
//    progress under the §4.3.2 block-list optimization, and expires
//    speculated-closed sharers.
//  - Failure handling (§4.3.4): the client list persists across crashes
//    ("stored directly on disk"); recovery multicasts whole-cache callbacks,
//    rebuilds the open-file table from clients' dirty lists, and blocks
//    incoming requests during the (short) grace period.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/flat_map.h"
#include "common/json_writer.h"
#include "gvfs/fault_hooks.h"
#include "gvfs/inv_log.h"
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

// Counter table (metrics/registry.h): each row is a ProxyServerStats member
// and the probe `<prefix><name>` AttachMetrics registers.
//  - invalidations_recorded: invalidations owed to a client (one per client
//    an InvLog append reaches; coalesced and broken clients are skipped);
//  - inv_wraps: clients whose invalidation stream broke on overflow, once
//    per break (the client owes nothing more and is forced to whole-cache
//    invalidate on its next poll);
//  - notifyinv_sent / notifyinv_received: sharded fleets' cross-shard
//    invalidation notifications (NOTIFYINV) to owning / from peer shards;
//  - inv_entries_peak: high-water mark of the entries the invalidation log
//    stores (each mutation once, while some client owes it);
//  - migrations_served / inv_drained: adaptive sessions' MIGRATE handshakes
//    completed for files this shard owns, and the buffered invalidations
//    delivered inside their replies.
#define GVFS_PROXY_SERVER_STATS(X)      \
  X(forwarded)                          \
  X(callbacks_sent)                     \
  X(getinv_served)                      \
  X(force_invalidations)                \
  X(recalls_read)                       \
  X(recalls_write)                      \
  X(invalidations_recorded)             \
  X(inv_wraps)                          \
  X(notifyinv_sent)                     \
  X(notifyinv_received)                 \
  X(inv_entries_peak)                   \
  X(migrations_served)                  \
  X(inv_drained)

struct ProxyServerStats {
  GVFS_COUNTER_TABLE(ProxyServerStats, GVFS_PROXY_SERVER_STATS)
};

class ProxyServer {
 public:
  /// `node` is this proxy's RPC endpoint (handlers are registered on it);
  /// `upstream` is the kernel NFS server (same host, loopback).
  /// `faults` is null except in fault-injection tests (gvfs/fault_hooks.h).
  ProxyServer(sim::Scheduler& sched, rpc::RpcNode& node, net::Address upstream,
              SessionConfig config, const FaultHooks* faults = nullptr);

  const SessionConfig& config() const { return config_; }
  const ProxyServerStats& stats() const { return stats_; }

  /// Crash simulation: drops all soft state (invalidation log and cursors,
  /// timestamps, open-file table) and takes the node down. The persistent
  /// client list survives (it lives on "disk").
  void Crash();

  /// Restart: brings the node back up; for the delegation model, multicasts
  /// recovery callbacks and holds a grace period until all known clients
  /// answer (or time out).
  sim::Task<void> Recover();

  bool InGrace() const { return in_grace_; }

  /// Registers this proxy's live telemetry under `prefix` (counters above,
  /// invalidation-log occupancy, delegation hold-time and recall
  /// write-back latency histograms) and attaches the session staleness
  /// probe: every successful mutation stamps the touched files' new version
  /// with the RPC's receipt time. `probe` may be null.
  void AttachMetrics(metrics::Registry& registry, const std::string& prefix,
                     metrics::StalenessProbe* probe);

  /// Protocol-state snapshot for the flight recorder (obs/recorder.h):
  /// delegation grants, invalidation-log cursors, per-file consistency
  /// modes and the shard map. Quiet files (no grants, no recalls, polling
  /// mode) are summarized as a count rather than serialized.
  JsonObject SnapshotState() const;

 private:
  struct Sharer {
    SimTime last_access = 0;
    SimTime last_write = 0;  // 0 = never wrote
    DelegationType granted = DelegationType::kNone;
    SimTime granted_at = 0;  // when `granted` last left kNone (hold-time base)
  };

  struct FileState {
    std::map<net::Address, Sharer> sharers;
    /// Block offsets not yet written back by `writeback_owner` (§4.3.2).
    std::set<std::uint64_t> pending_writeback;
    net::Address writeback_owner{};
    /// Recalls in flight: the file is temporarily non-cacheable (§4.3.1).
    int recalling = 0;
    /// Adaptive sessions: consistency mode the last MIGRATE put the file in.
    /// DecideGrant hands out no delegation while a file sits in kPolling.
    policy::FileMode mode = policy::FileMode::kPolling;
  };

  /// What an incoming NFS request does, distilled for consistency handling.
  struct OpInfo {
    bool known = false;
    bool mutating = false;
    /// Handles read by this op (delegation-read targets).
    std::vector<nfs3::Fh> reads;
    /// Handles written by this op (recall + invalidation targets).
    std::vector<nfs3::Fh> writes;
    /// For READ/WRITE: byte offset touched (write-back monitor).
    std::optional<std::uint64_t> offset;
    /// For REMOVE/RMDIR/RENAME: (dir, name) pairs whose target should also
    /// be invalidated; resolved with an upstream LOOKUP.
    std::vector<std::pair<nfs3::Fh, std::string>> victims;
  };

  sim::Task<Buf> HandleNfs(std::uint32_t proc, rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleGetInv(rpc::CallContext ctx, rpc::Body args);
  sim::Task<Buf> HandleNotifyInv(rpc::CallContext ctx, rpc::Body args);
  /// Adaptive sessions: per-file mode switch (drain-before-switch handshake).
  sim::Task<Buf> HandleMigrate(rpc::CallContext ctx, rpc::Body args);

  static OpInfo Classify(std::uint32_t proc, const rpc::Body& args);

  /// Registers the caller in the session (persistent list).
  void RegisterClient(net::Address client);

  // -- invalidation polling --
  void RecordInvalidation(const nfs3::Fh& fh, net::Address writer);

  // -- sharded fleet (src/fleet) --
  /// True when this shard owns `fh` (always true unsharded).
  bool OwnsHandle(const nfs3::Fh& fh) const;
  /// Records a mutation of `fh`: locally when owned, else via a NOTIFYINV
  /// RPC to the owning shard so invalidations live only with the owner.
  sim::Task<void> PropagateInvalidation(nfs3::Fh fh, net::Address writer,
                                        trace::SpanRef parent);

  // -- delegation machinery --
  // `parent` chains the recall CALLBACKs into the span of the NFS request
  // that forced them (one causal tree from requester through server to the
  // recalled holder).
  sim::Task<void> RecallConflicts(nfs3::Fh fh, net::Address requester,
                                  bool write_op, std::optional<std::uint64_t> offset,
                                  trace::SpanRef parent = {});
  /// One recall callback to one conflicting sharer, plus the post-reply
  /// bookkeeping (grant revocation, §4.3.2 block-list absorption).
  sim::Task<void> RecallOne(nfs3::Fh fh, net::Address addr, DelegationType granted,
                            std::optional<std::uint64_t> offset,
                            trace::SpanRef parent = {});
  /// One state-recovery callback to one known client (§4.3.4).
  sim::Task<void> RecoverClient(net::Address client);
  /// Write-back monitor: a reader touching a block still pending write-back
  /// forces the owner to submit it promptly.
  sim::Task<void> EnsureBlockWrittenBack(nfs3::Fh fh, net::Address requester,
                                         std::uint64_t offset,
                                         trace::SpanRef parent = {});
  DelegationType DecideGrant(const nfs3::Fh& fh, net::Address requester,
                             bool write_op);
  void TouchSharer(const nfs3::Fh& fh, net::Address client, bool write_op,
                   DelegationType granted);
  void ExpireSharers(const nfs3::Fh& fh, FileState& state);
  sim::Task<CallbackRes> SendCallback(net::Address client, nfs3::Fh fh,
                                      CallbackType type,
                                      std::optional<std::uint64_t> wanted,
                                      trace::SpanRef parent = {});

  /// Server-side delegation trace event for `fh` toward `peer`; `wanted` is
  /// the block a recall asks the holder to write back first.
  void TraceDeleg(trace::EventType type, const nfs3::Fh& fh,
                  DelegationType deleg, HostId peer,
                  std::optional<std::uint64_t> wanted = std::nullopt) const;
  /// Records a delegation's hold time when it ends (recall or expiry).
  void RecordHoldTime(const Sharer& sharer);

  sim::Task<void> WaitGrace();

  sim::Scheduler& sched_;
  rpc::RpcNode& node_;
  nfs3::Nfs3Client upstream_;
  SessionConfig config_;
  FaultHooks faults_;  // all off unless a test injected faults

  // Soft state (lost on crash).
  InvLog inv_log_;
  FlatMap<nfs3::Fh, FileState, nfs3::FhHash> files_;

  // Persistent state ("on disk"): survives Crash().
  /// Ordered: recovery callbacks go out in address order.
  std::set<net::Address> persistent_clients_;
  /// Membership test RegisterClient makes on every request, keyed by
  /// (host << 32) | port; only a new client touches the ordered set.
  FlatMap<std::uint64_t, bool> known_clients_;

  bool in_grace_ = false;
  sim::Condition grace_over_;

  ProxyServerStats stats_;
  /// Recall CALLBACKs currently in flight (recall queue depth gauge).
  int recalls_in_flight_ = 0;
  metrics::StalenessProbe* staleness_ = nullptr;
  metrics::Histogram* deleg_hold_hist_ = nullptr;   // µs
  metrics::Histogram* recall_wb_hist_ = nullptr;    // recall → reply, µs
};

}  // namespace gvfs::proxy
