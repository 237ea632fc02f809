// Per-session configuration and middleware wiring for GVFS.
//
// A GVFS session (Figure 1 of the paper) is established by middleware: one
// proxy server co-located with the kernel NFS server, plus one proxy client
// per participating client host. Each session chooses its own consistency
// model and cache policy; multiple sessions share the physical hosts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/network.h"
#include "nfs3/proto.h"

namespace gvfs::proxy {

enum class ConsistencyModel {
  /// Invalidation polling via GETINV (§4.2) — relaxed consistency.
  kInvalidationPolling,
  /// Delegation + callback (§4.3) — strong consistency.
  kDelegationCallback,
};

enum class CacheMode {
  /// Cache reads; forward writes synchronously (write-through).
  kReadOnly,
  /// Also absorb writes in the disk cache; flush lazily (write-back).
  kWriteBack,
};

struct SessionConfig {
  SessionConfig() = default;
  SessionConfig(const SessionConfig&) = default;
  SessionConfig(SessionConfig&&) noexcept = default;
  SessionConfig& operator=(const SessionConfig&) = default;
  SessionConfig& operator=(SessionConfig&&) noexcept = default;

  ConsistencyModel model = ConsistencyModel::kInvalidationPolling;
  CacheMode cache_mode = CacheMode::kReadOnly;

  /// Invalidation polling (§4.2): base polling period; when max > base the
  /// client backs off exponentially while polls return empty.
  Duration poll_period = Seconds(30);
  Duration poll_max_period = Seconds(30);
  /// Per-client invalidation buffer capacity (circular; overflow triggers
  /// force-invalidate).
  std::size_t inv_buffer_capacity = 8192;

  /// Delegation callback (§4.3): server-side speculated-close expiry and the
  /// client-side renewal period (renew < expiry keeps delegations alive even
  /// with skewed clocks).
  Duration deleg_expiry = Seconds(600);
  Duration deleg_renew = Seconds(480);

  /// Write-back mode: periodic background flush interval (0 = only flush on
  /// recall/shutdown).
  Duration wb_flush_period = Seconds(60);

  /// Write-back pipelining: max WRITE RPCs a flush keeps in flight per file
  /// (sliding window), with one coalesced COMMIT once the window drains.
  /// 1 preserves the fully serialized behaviour (one RPC per RTT); values
  /// > 1 also let FlushAll / Recover work distinct files concurrently.
  std::size_t wb_window = 1;

  /// Sequential read-ahead: number of blocks prefetched in parallel once the
  /// proxy detects a sequential block-fault pattern on a file. 0 disables
  /// read-ahead (every fault costs a full serialized round trip).
  std::uint32_t read_ahead = 0;

  /// When a directory changed (its name entries went stale) but its
  /// attributes are trusted again, rebuild the whole name cache with one
  /// paginated READDIR instead of forwarding per-name LOOKUPs. Saves the
  /// post-update LOOKUP storm in producer/consumer workloads (Figure 8).
  bool readdir_refresh = true;

  /// Adaptive consistency (src/policy): the session starts every file under
  /// invalidation polling (model must be kInvalidationPolling — polling
  /// stays on as the safety net) and a per-file policy engine migrates hot
  /// files into read/write delegations at runtime via MIGRATE handshakes.
  bool adaptive = false;

  /// Adaptive only: how often the policy engine re-classifies access
  /// patterns and issues migrations.
  Duration policy_period = Seconds(5);
  /// Adaptive only: minimum time a file stays in its mode after a migration
  /// before the engine may move it again (damps thrashing).
  Duration policy_dwell = Seconds(10);
  /// Adaptive only: recall-storm breaker — when the recalls a client
  /// observes grow by at least this much across one policy window, its
  /// promotions freeze (demotions still run) for PolicyConfig::storm_freeze.
  std::uint32_t policy_storm_recalls = 8;

  /// Sharded fleet serving (src/fleet): addresses of every proxy-server
  /// shard in this session, indexed by ShardOf(fh, shard_addrs.size()).
  /// Empty or size 1 means the classic single-server session. When set on a
  /// proxy client, per-file NFS traffic routes to the owning shard; when set
  /// on a proxy server shard, mutations of foreign handles are forwarded to
  /// the owner via NOTIFYINV.
  std::vector<net::Address> shard_addrs;

  /// This proxy server's index into shard_addrs (ignored when unsharded).
  std::uint32_t shard_index = 0;

  /// GETINV polling targets for a proxy client. Empty means "poll the
  /// session server" (plus every other shard when sharded); set to a single
  /// aggregator address to route consistency polls through the aggregation
  /// tier instead.
  std::vector<net::Address> getinv_targets;
};

/// Partitions the file-handle space across `shard_count` shards. Pure
/// function of the handle (splitmix64-mixed fsid/ino), so every node in a
/// fleet computes the same owner without coordination. shard_count < 2
/// always maps to shard 0.
std::uint32_t ShardOf(const nfs3::Fh& fh, std::uint32_t shard_count);

}  // namespace gvfs::proxy
