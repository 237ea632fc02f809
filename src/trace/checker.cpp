#include "trace/checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>
#include <tuple>

#include "common/logging.h"

namespace gvfs::trace {
namespace {

using FileKey = std::pair<std::uint64_t, std::uint64_t>;          // fsid, ino
using HostFileKey = std::tuple<HostId, std::uint64_t, std::uint64_t>;

constexpr std::uint32_t kTypeRead = 1;   // proxy::DelegationType::kRead
constexpr std::uint32_t kTypeWrite = 2;  // proxy::DelegationType::kWrite

/// Read-class cache hits that must not be served over a stale entry.
/// WRITE hits revalidate (an absorbed write refreshes the entry from the
/// client's own data); COMMIT hits are durability-only and neutral.
bool IsReadClassOp(const std::string& label) {
  return label == "GETATTR" || label == "LOOKUP" || label == "ACCESS" ||
         label == "READ";
}

}  // namespace

const char* InvariantKindName(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kConflictingDelegation:
      return "conflicting-delegation";
    case InvariantKind::kStaleRead:
      return "stale-read";
    case InvariantKind::kRecallWriteBack:
      return "recall-writeback";
    case InvariantKind::kDrcReexec:
      return "drc-reexec";
    case InvariantKind::kAggTier:
      return "agg-tier";
    case InvariantKind::kPolicyMigration:
      return "policy-migration";
  }
  return "?";
}

TraceChecker::TraceChecker(CheckerConfig config) : config_(std::move(config)) {}

std::vector<Violation> TraceChecker::Check(const TraceBuffer& buffer) {
  std::vector<Violation> out;
  char msg[256];
  warnings_.clear();
  if (buffer.dropped() > 0) {
    std::snprintf(msg, sizeof(msg),
                  "trace buffer overflowed; %llu oldest events dropped — "
                  "invariants checked over a truncated run",
                  static_cast<unsigned long long>(buffer.dropped()));
    warnings_.emplace_back(msg);
    GVFS_WARN("checker: %s", msg);
  }
  auto report = [&](std::size_t idx, SimTime t, InvariantKind kind) {
    out.push_back(Violation{idx, t, kind, msg});
  };

  // Invariant 1: server-side delegation holder state per file.
  struct FileHolders {
    std::map<HostId, std::uint32_t> holders;  // client host -> type
    HostId granting_host = kInvalidHost;      // server that issued the grants
  };
  std::map<FileKey, FileHolders> deleg;

  // Invariant 2: per (client host, file) validity state, sequenced by event
  // index. A read-class hit while the latest covering invalidation is newer
  // than the latest refresh is a violation.
  struct CacheState {
    std::int64_t invalidated = -1;
    std::int64_t validated = -1;
  };
  std::map<HostFileKey, CacheState> cache;
  std::map<HostId, std::int64_t> force_inv;  // whole-cache invalidations

  // Invariant 3: outstanding wanted-block write-back obligations per
  // (holder host, file), created by a client-side write recall.
  struct RecallObligation {
    std::uint64_t wanted_offset = 0;
    bool written = false;
    std::size_t recall_index = 0;
  };
  std::map<HostFileKey, RecallObligation> obligations;

  // Invariant 4: executed non-idempotent requests, keyed by executing node
  // plus caller identity plus xid.
  using ExecKey = std::tuple<HostId, std::uint32_t, HostId, std::uint32_t,
                             std::uint32_t>;
  std::set<ExecKey> executed;

  // Invariant 5: aggregation-tier fan-out accounting. Hosts become
  // "aggregators" implicitly by emitting kAgg* events; a plain server's
  // kInvWrap/kInvForce events touch no state here because no clients are
  // ever registered under its host. A client registers under an aggregator
  // when it is first served (kAggServe / aggregator-side kInvForce), which
  // is exactly when the aggregator starts fanning out to it.
  using AggClientKey = std::pair<HostId, HostId>;  // aggregator, client
  using AggPendingKey =
      std::tuple<HostId, HostId, std::uint64_t, std::uint64_t>;  // +fsid, ino
  std::map<HostId, std::set<HostId>> agg_clients;
  std::set<AggPendingKey> agg_pending;   // fanned out, not yet delivered
  std::set<AggClientKey> agg_forced;     // whole-cache invalidation owed
  auto drop_agg_client = [&](HostId agg, HostId client) {
    agg_forced.erase({agg, client});
    auto it = agg_pending.lower_bound({agg, client, 0, 0});
    while (it != agg_pending.end() && std::get<0>(*it) == agg &&
           std::get<1>(*it) == client) {
      it = agg_pending.erase(it);
    }
  };

  // Invariant 6: buffered-but-undelivered invalidation entries per
  // (destination host, file), produced by server-side kInvAppend and
  // consumed when the destination applies the entry (client-side kInvPoll),
  // the server drains it during a MIGRATE (server-side kInvPoll naming the
  // destination as peer), an aggregator absorbs it (kAggIngest), or a
  // whole-cache invalidation supersedes the stream (kInvForce / kInvWrap /
  // crash). A client-side kPolicyMigrate with entries still pending is a
  // lost invalidation.
  std::map<HostFileKey, std::uint32_t> inv_pending;
  auto drop_inv_pending_for = [&](HostId host) {
    auto it = inv_pending.lower_bound({host, 0, 0});
    while (it != inv_pending.end() && std::get<0>(it->first) == host) {
      it = inv_pending.erase(it);
    }
  };
  auto clear_inv_pending = [&](HostId host, std::uint64_t fsid,
                               std::uint64_t ino) {
    inv_pending.erase({host, fsid, ino});
  };

  for (std::size_t i = 0; i < buffer.size(); ++i) {
    const Event& ev = buffer.at(i);
    const auto idx = static_cast<std::int64_t>(i);
    switch (ev.type) {
      case EventType::kDelegGrant: {
        const auto& d = ev.u.deleg;
        if ((d.flags & kDelegFlagServerSide) == 0) break;
        const FileKey file{d.fsid, d.ino};
        FileHolders& fh = deleg[file];
        fh.granting_host = ev.host;
        for (const auto& [other, type] : fh.holders) {
          if (other == d.peer_host) continue;
          const bool conflict =
              d.deleg_type == kTypeWrite
                  ? type != 0
                  : (d.deleg_type == kTypeRead && type == kTypeWrite);
          if (conflict) {
            std::snprintf(msg, sizeof(msg),
                          "file %s: %s delegation granted to host %u while "
                          "host %u still holds %s",
                          FhString(d.fsid, d.ino).c_str(),
                          d.deleg_type == kTypeWrite ? "write" : "read",
                          d.peer_host, other,
                          type == kTypeWrite ? "write" : "read");
            report(i, ev.time, InvariantKind::kConflictingDelegation);
          }
        }
        // Write grants are sticky until released/expired; a later read grant
        // to the same holder must not mask the outstanding write.
        std::uint32_t& held = fh.holders[d.peer_host];
        held = std::max(held, d.deleg_type);
        break;
      }
      case EventType::kDelegRelease:
      case EventType::kDelegExpiry: {
        const auto& d = ev.u.deleg;
        if ((d.flags & kDelegFlagServerSide) != 0) {
          deleg[{d.fsid, d.ino}].holders.erase(d.peer_host);
          break;
        }
        // Client-side release: the CALLBACK reply is about to go out; any
        // wanted dirty block must have been written back by now.
        auto it = obligations.find({ev.host, d.fsid, d.ino});
        if (it != obligations.end()) {
          if (!it->second.written) {
            std::snprintf(msg, sizeof(msg),
                          "host %u replied to write recall of file %s before "
                          "writing back wanted block at offset %" PRIu64,
                          ev.host, FhString(d.fsid, d.ino).c_str(),
                          it->second.wanted_offset);
            report(i, ev.time, InvariantKind::kRecallWriteBack);
          }
          obligations.erase(it);
        }
        break;
      }
      case EventType::kDelegRecall: {
        const auto& d = ev.u.deleg;
        if ((d.flags & kDelegFlagServerSide) != 0) break;
        // Client received a CALLBACK: the cached entry is no longer covered.
        cache[{ev.host, d.fsid, d.ino}].invalidated = idx;
        if ((d.flags & kDelegFlagHasWanted) != 0 &&
            (d.flags & kDelegFlagWantedDirty) != 0) {
          obligations[{ev.host, d.fsid, d.ino}] =
              RecallObligation{d.wanted_offset, false, i};
        }
        break;
      }
      case EventType::kInvAppend: {
        // Server appended an entry to the destination's buffer (peer = the
        // destination host): the invalidation is now owed to that host.
        const auto& v = ev.u.inv;
        if (v.peer_host != 0 && v.ino != 0) {
          ++inv_pending[{v.peer_host, v.fsid, v.ino}];
        }
        break;
      }
      case EventType::kInvPoll: {
        const auto& v = ev.u.inv;
        if (v.ino != 0) {
          cache[{ev.host, v.fsid, v.ino}].invalidated = idx;
          // Client-side application (host = destination) or server-side
          // MIGRATE drain (peer = destination) both settle the owed entry.
          clear_inv_pending(ev.host, v.fsid, v.ino);
          if (v.peer_host != 0) clear_inv_pending(v.peer_host, v.fsid, v.ino);
        }
        break;
      }
      case EventType::kInvForce: {
        force_inv[ev.host] = idx;
        drop_inv_pending_for(ev.host);
        // Server/aggregator side (peer = the client being force-served):
        // the whole-cache invalidation settles every outstanding per-handle
        // obligation toward that client and (re)registers it for fan-out.
        const auto& v = ev.u.inv;
        if (v.peer_host != 0) {
          drop_agg_client(ev.host, v.peer_host);
          agg_clients[ev.host].insert(v.peer_host);
          drop_inv_pending_for(v.peer_host);
        }
        break;
      }
      case EventType::kInvWrap: {
        // The incremental stream to `peer` broke (buffer overflow or an
        // upstream force escalating through the tier); per-handle delivery
        // is superseded by the force the client will be served next poll.
        const auto& v = ev.u.inv;
        if (v.peer_host != 0) {
          drop_agg_client(ev.host, v.peer_host);
          agg_forced.insert({ev.host, v.peer_host});
          drop_inv_pending_for(v.peer_host);
        }
        break;
      }
      case EventType::kAggFanout: {
        const auto& v = ev.u.inv;
        agg_clients[ev.host].insert(v.peer_host);
        if (!agg_pending.insert({ev.host, v.peer_host, v.fsid, v.ino})
                 .second) {
          std::snprintf(msg, sizeof(msg),
                        "aggregator %u fanned out file %s to host %u twice "
                        "without a delivery in between (coalescing broken; "
                        "duplicate invalidation)",
                        ev.host, FhString(v.fsid, v.ino).c_str(), v.peer_host);
          report(i, ev.time, InvariantKind::kAggTier);
        }
        break;
      }
      case EventType::kAggIngest: {
        const auto& v = ev.u.inv;
        // The aggregator absorbed its buffered copy of the upstream entry.
        clear_inv_pending(ev.host, v.fsid, v.ino);
        for (HostId client : agg_clients[ev.host]) {
          if (agg_forced.count({ev.host, client}) != 0) continue;
          if (agg_pending.count({ev.host, client, v.fsid, v.ino}) != 0) {
            continue;
          }
          std::snprintf(msg, sizeof(msg),
                        "aggregator %u ingested file %s without fanning it "
                        "out to registered host %u (invalidation lost "
                        "crossing the tier)",
                        ev.host, FhString(v.fsid, v.ino).c_str(), client);
          report(i, ev.time, InvariantKind::kAggTier);
        }
        break;
      }
      case EventType::kAggDeliver: {
        const auto& v = ev.u.inv;
        const AggPendingKey key{ev.host, v.peer_host, v.fsid, v.ino};
        if (agg_pending.erase(key) == 0) {
          std::snprintf(msg, sizeof(msg),
                        "aggregator %u delivered file %s to host %u without "
                        "a pending fan-out (duplicate or fabricated "
                        "invalidation)",
                        ev.host, FhString(v.fsid, v.ino).c_str(), v.peer_host);
          report(i, ev.time, InvariantKind::kAggTier);
        }
        break;
      }
      case EventType::kAggServe: {
        agg_clients[ev.host].insert(ev.u.inv.peer_host);
        break;
      }
      case EventType::kCacheMiss:
        cache[{ev.host, ev.u.cache.fsid, ev.u.cache.ino}].validated = idx;
        break;
      case EventType::kCacheWriteBack: {
        const auto& c = ev.u.cache;
        auto it = obligations.find({ev.host, c.fsid, c.ino});
        if (it != obligations.end() && c.offset == it->second.wanted_offset) {
          it->second.written = true;
        }
        break;
      }
      case EventType::kCacheHit: {
        const auto& c = ev.u.cache;
        const std::string& op = buffer.LabelName(c.label);
        CacheState& state = cache[{ev.host, c.fsid, c.ino}];
        if (op == "WRITE") {
          // An absorbed write refreshes the entry with the client's own data.
          state.validated = idx;
          break;
        }
        if (!IsReadClassOp(op)) break;
        std::int64_t invalidated = state.invalidated;
        auto fit = force_inv.find(ev.host);
        if (fit != force_inv.end()) {
          invalidated = std::max(invalidated, fit->second);
        }
        if (invalidated > state.validated) {
          std::snprintf(msg, sizeof(msg),
                        "host %u served %s for file %s from cache after a "
                        "covering invalidation without a refresh",
                        ev.host, op.c_str(), FhString(c.fsid, c.ino).c_str());
          report(i, ev.time, InvariantKind::kStaleRead);
        }
        break;
      }
      case EventType::kRpcExec: {
        const auto& r = ev.u.rpc;
        const std::uint64_t pp =
            (static_cast<std::uint64_t>(r.prog) << 32) | r.proc;
        if (config_.non_idempotent.count(pp) == 0) break;
        const ExecKey key{ev.host, ev.port, r.peer_host, r.peer_port, r.xid};
        if (!executed.insert(key).second) {
          std::snprintf(msg, sizeof(msg),
                        "node %u:%u re-executed non-idempotent %s (prog %u "
                        "proc %u) for caller %u:%u xid=%u",
                        ev.host, ev.port,
                        buffer.LabelName(r.label).c_str(), r.prog, r.proc,
                        r.peer_host, r.peer_port, r.xid);
          report(i, ev.time, InvariantKind::kDrcReexec);
        }
        break;
      }
      case EventType::kNodeCrash: {
        // A crashed server forgets its grants (clients are told during
        // recovery); a crashed client loses its cache validity, its recall
        // obligations, and its duplicate-request cache.
        for (auto& [file, fh] : deleg) {
          if (fh.granting_host == ev.host) fh.holders.clear();
        }
        force_inv[ev.host] = idx;
        for (auto it = obligations.begin(); it != obligations.end();) {
          it = std::get<0>(it->first) == ev.host ? obligations.erase(it)
                                                 : std::next(it);
        }
        for (auto it = executed.begin(); it != executed.end();) {
          it = std::get<0>(*it) == ev.host ? executed.erase(it)
                                           : std::next(it);
        }
        // A crashed aggregator forgets its downstream registrations; its
        // clients re-bootstrap (force) when it comes back.
        if (auto ait = agg_clients.find(ev.host); ait != agg_clients.end()) {
          for (HostId client : ait->second) drop_agg_client(ev.host, client);
          agg_clients.erase(ait);
        }
        // A crashed host's owed invalidations die with its buffers; the
        // recovery force re-bootstraps the stream.
        drop_inv_pending_for(ev.host);
        break;
      }
      case EventType::kPolicyMigrate: {
        const auto& p = ev.u.policy;
        if ((p.flags & kPolicyFlagServerSide) != 0) break;
        auto it = inv_pending.find({ev.host, p.fsid, p.ino});
        if (it != inv_pending.end() && it->second > 0) {
          std::snprintf(msg, sizeof(msg),
                        "host %u migrated file %s (mode %u -> %u) with %u "
                        "buffered invalidation(s) undelivered — the switch "
                        "lost a mutation (drain-before-switch violated)",
                        ev.host, FhString(p.fsid, p.ino).c_str(), p.from, p.to,
                        it->second);
          report(i, ev.time, InvariantKind::kPolicyMigration);
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::string out;
  char head[96];
  for (const auto& v : violations) {
    std::snprintf(head, sizeof(head), "[%.6fs #%zu %s] ", ToSeconds(v.time),
                  v.event_index, InvariantKindName(v.kind));
    out += head;
    out += v.detail;
    out += '\n';
  }
  return out;
}

}  // namespace gvfs::trace
