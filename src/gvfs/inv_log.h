// Invalidation log (§4.2.1): the one invalidation buffer behind both GETINV
// servers, the proxy server and the aggregation tier (fleet/inv_aggregator).
//
// The paper keeps a circular buffer per client only because each client's
// delivery window differs. The log keeps the window per client and the
// entries once: every mutation is stored once — timestamp, handle, writer
// and the number of clients that owe it — for as long as some client owes
// it, and each client holds only a cursor (last-acked timestamp, owed count,
// broken flag, and a small map of handles it no longer owes up to some
// timestamp). Memory is O(clients + entries), not O(clients x entries).
//
// Delivery rule: for each handle, a client owes the first logged entry after
// its cursor that it did not write and that its map does not cover. That is
// exactly what a per-client buffer with one-entry-per-handle coalescing
// holds, so GETINV replies (handle order, timestamps, force and poll-again
// flags) are the same as per-client buffers would give. The map covers the
// handles a client was sent in a poll-again batch, or had drained by
// MIGRATE, while a newer entry for them was already logged — a per-client
// buffer coalesced that newer entry away.
//
// Appends still walk the clients, so each client's owed count, the capacity
// check and the per-client trace event are per client. A client whose owed
// count passes the capacity is broken once (kInvWrap): it owes nothing, gets
// no appends, and its next GETINV is a whole-cache invalidation. An entry is
// freed when the last client owing it is served, drains it or is broken.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/json_writer.h"
#include "gvfs/fault_hooks.h"
#include "gvfs/proto.h"
#include "net/network.h"
#include "nfs3/proto.h"
#include "trace/trace.h"

namespace gvfs {

class InvLog {
 public:
  /// Fixes the trace vocabulary. A proxy server traces appends as kInvAppend
  /// and a served batch as one kInvPoll; the aggregation tier traces
  /// kAggFanout, then kAggDeliver per served handle plus one kAggServe.
  enum class Role { kServer, kTier };

  /// `tracer` must outlive the log. `faults` is null except in the tier's
  /// fault-injection tests (drop_fanout / duplicate_fanout).
  InvLog(Role role, const trace::Tracer& tracer, HostId host,
         std::size_t capacity, std::uint32_t batch,
         const proxy::FaultHooks* faults = nullptr);

  /// Logs a mutation of `fh` by `writer` (Address{} = no writer) at the next
  /// timestamp and owes it to every registered client that is not the
  /// writer, not broken, and not already owed `fh`. Returns how many clients
  /// it reached (a client it overflowed included).
  std::uint32_t Append(const nfs3::Fh& fh, net::Address writer = {});

  /// GETINV from `client` carrying `last_timestamp`. Case 1: unknown client
  /// (bootstrap, or first contact after a restart) — register it; case 2:
  /// null, stale or future timestamp, or a broken stream; both are served a
  /// whole-cache invalidation. Case 3: the oldest owed entries, at most one
  /// batch, with poll_again set while more are owed.
  proxy::GetInvRes Serve(net::Address client, std::uint64_t last_timestamp);

  /// MIGRATE drain: delivers the entry `client` owes for `fh` (traced as
  /// kInvPoll) and returns how many were delivered. A broken client may
  /// have lost entries for `fh`, so it is told 1.
  std::uint32_t Drain(const nfs3::Fh& fh, net::Address client);

  /// Upstream force-invalidate at the tier: breaks every client's stream.
  void BreakAll(std::uint64_t upstream_timestamp);

  /// Server crash: all soft state and the clock are lost.
  void Clear();

  std::uint64_t clock() const { return clock_; }
  std::size_t entries() const { return log_.size(); }
  std::size_t clients() const { return cursors_.size(); }
  /// Largest owed count of any client.
  std::size_t max_owed() const;
  /// Stored-entry high-water mark and clients broken by overflow, over the
  /// log's whole life (Clear() keeps both).
  std::size_t peak_entries() const { return peak_; }
  std::uint64_t wraps() const { return wraps_; }

  /// Clock, stored-entry count and every cursor (host, port, owed,
  /// last_acked, broken), for .gvfsdump state.
  JsonObject Snapshot() const;

 private:
  struct Entry {
    nfs3::Fh fh;
    net::Address writer;
    std::uint32_t owed_by = 0;  // clients owing this entry
  };
  using Log = std::map<std::uint64_t, Entry>;  // by timestamp

  struct Cursor {
    std::uint64_t last_acked = 0;
    std::uint32_t owed = 0;
    bool broken = false;
    /// Handle -> timestamp up to which its entries are no longer owed.
    std::map<nfs3::Fh, std::uint64_t> covered;
  };

  /// The entry `addr` owes for `fh`, or log_.end().
  Log::iterator Owed(const nfs3::Fh& fh, net::Address addr,
                     const Cursor& cursor);
  /// The first `n` entries `addr` owes, oldest first.
  std::vector<Log::iterator> OwedEntries(net::Address addr,
                                         const Cursor& cursor, std::size_t n);
  /// After `fh` was delivered: covers the entries for it still logged past
  /// the cursor.
  void Cover(Cursor& cursor, const nfs3::Fh& fh);
  /// One owing client fewer; frees the entry when none is left.
  void Release(Log::iterator entry);
  /// Releases everything `addr` owes and marks its stream `broken` or not.
  void Reset(net::Address addr, Cursor& cursor, bool broken);
  void Trace(trace::EventType type, const nfs3::Fh& fh,
             std::uint64_t timestamp, std::uint32_t count,
             net::Address peer) const;

  Role role_;
  const trace::Tracer& tracer_;
  HostId host_;
  std::size_t capacity_;
  std::uint32_t batch_;
  proxy::FaultHooks faults_;

  // Logical clock. Starts at 1: timestamp 0 is reserved as the
  // null/bootstrap timestamp clients send when they have no state (§4.2.2).
  std::uint64_t clock_ = 1;
  // These stay trees, unlike the per-handle caches: the log is walked in
  // timestamp order, and InvLogDifferential pins this implementation reply
  // for reply.
  Log log_;
  /// Each handle's stored entries, oldest first.
  std::map<nfs3::Fh, std::vector<Log::iterator>> by_handle_;
  std::map<net::Address, Cursor> cursors_;
  std::size_t peak_ = 0;
  std::uint64_t wraps_ = 0;  // clients broken by overflow
};

}  // namespace gvfs
