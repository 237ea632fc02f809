#include "gvfs/inv_log.h"

#include <algorithm>

namespace gvfs {

using nfs3::Fh;
using trace::EventType;

InvLog::InvLog(Role role, const trace::Tracer& tracer, HostId host,
               std::size_t capacity, std::uint32_t batch,
               const proxy::FaultHooks* faults)
    : role_(role),
      tracer_(tracer),
      host_(host),
      capacity_(capacity),
      batch_(batch),
      faults_(faults != nullptr ? *faults : proxy::FaultHooks{}) {}

std::uint32_t InvLog::Append(const Fh& fh, net::Address writer) {
  ++clock_;
  const EventType event =
      role_ == Role::kTier ? EventType::kAggFanout : EventType::kInvAppend;
  std::uint32_t reached = 0;
  std::uint32_t owners = 0;
  for (auto it = cursors_.begin(); it != cursors_.end(); ++it) {
    auto& [addr, cursor] = *it;
    if (cursor.broken || addr == writer) continue;
    if (faults_.duplicate_fanout && it == cursors_.begin()) {
      Trace(event, fh, clock_, cursor.owed, addr);  // seeded duplicate
    }
    if (Owed(fh, addr, cursor) != log_.end()) continue;  // coalesced
    if (faults_.drop_fanout && std::next(it) == cursors_.end()) {
      cursor.covered[fh] = clock_;  // seeded loss
      continue;
    }
    ++reached;
    Trace(event, fh, clock_, cursor.owed + 1, addr);
    if (cursor.owed + 1 > capacity_) {
      // Overflow breaks this client's incremental stream once: it is due a
      // whole-cache invalidation either way, so it owes nothing from here.
      Trace(EventType::kInvWrap, fh, clock_, cursor.owed + 1, addr);
      ++wraps_;
      Reset(addr, cursor, /*broken=*/true);
    } else {
      ++cursor.owed;
      ++owners;
    }
  }
  if (owners > 0) {
    by_handle_[fh].push_back(
        log_.emplace_hint(log_.end(), clock_, Entry{fh, writer, owners}));
    peak_ = std::max(peak_, log_.size());
  }
  return reached;
}

proxy::GetInvRes InvLog::Serve(net::Address client,
                               std::uint64_t last_timestamp) {
  proxy::GetInvRes res;
  auto [it, fresh] = cursors_.try_emplace(client);
  Cursor& cursor = it->second;
  if (fresh || cursor.broken || last_timestamp == 0 ||
      last_timestamp < cursor.last_acked || last_timestamp > clock_) {
    Reset(client, cursor, /*broken=*/false);
    cursor.last_acked = clock_;
    res.new_timestamp = clock_;
    res.force_invalidate = true;
    Trace(EventType::kInvForce, {}, clock_, 0, client);
    return res;
  }

  const std::vector<Log::iterator> batch = OwedEntries(
      client, cursor, std::min<std::size_t>(cursor.owed, batch_));
  const auto served = static_cast<std::uint32_t>(batch.size());
  cursor.owed -= served;
  res.poll_again = cursor.owed > 0;
  for (Log::iterator entry : batch) {
    res.handles.push_back(entry->second.fh);
    cursor.last_acked = entry->first;
    if (role_ == Role::kTier) {
      Trace(EventType::kAggDeliver, entry->second.fh, entry->first, served,
            client);
    }
    Release(entry);
  }
  if (!res.poll_again) {
    cursor.last_acked = clock_;
    cursor.covered.clear();
  }
  for (const Fh& fh : res.handles) Cover(cursor, fh);
  res.new_timestamp = cursor.last_acked;
  Trace(role_ == Role::kTier ? EventType::kAggServe : EventType::kInvPoll, {},
        res.new_timestamp, served, client);
  return res;
}

std::uint32_t InvLog::Drain(const Fh& fh, net::Address client) {
  auto it = cursors_.find(client);
  if (it == cursors_.end()) return 0;
  if (it->second.broken) return 1;
  const Log::iterator entry = Owed(fh, client, it->second);
  if (entry == log_.end()) return 0;
  // The MIGRATE reply delivers this entry exactly like a GETINV batch would
  // have: trace it as an applied per-handle invalidation so the
  // version-continuity invariant sees the obligation settled.
  Trace(EventType::kInvPoll, fh, entry->first, 1, client);
  --it->second.owed;
  Release(entry);
  Cover(it->second, fh);
  return 1;
}

void InvLog::BreakAll(std::uint64_t upstream_timestamp) {
  for (auto& [addr, cursor] : cursors_) {
    if (cursor.broken) continue;
    Trace(EventType::kInvWrap, {}, upstream_timestamp, cursor.owed, addr);
    Reset(addr, cursor, /*broken=*/true);
  }
}

void InvLog::Clear() {
  cursors_.clear();
  by_handle_.clear();
  log_.clear();
  clock_ = 1;
}

std::size_t InvLog::max_owed() const {
  std::size_t owed = 0;
  for (const auto& [addr, cursor] : cursors_) {
    owed = std::max<std::size_t>(owed, cursor.owed);
  }
  return owed;
}

JsonObject InvLog::Snapshot() const {
  JsonObject snap;
  snap.Add("clock", clock_);
  snap.Add("entries", static_cast<std::uint64_t>(log_.size()));
  std::vector<JsonObject> cursors;
  for (const auto& [addr, cursor] : cursors_) {
    cursors.push_back(JsonObject()
                          .Add("host", static_cast<std::uint64_t>(addr.host))
                          .Add("port", static_cast<std::uint64_t>(addr.port))
                          .Add("owed", static_cast<std::uint64_t>(cursor.owed))
                          .Add("last_acked", cursor.last_acked)
                          .Add("broken", cursor.broken));
  }
  snap.Add("cursors", cursors);
  return snap;
}

InvLog::Log::iterator InvLog::Owed(const Fh& fh, net::Address addr,
                                   const Cursor& cursor) {
  auto handle = by_handle_.find(fh);
  if (handle == by_handle_.end()) return log_.end();
  std::uint64_t bound = cursor.last_acked;
  auto covered = cursor.covered.find(fh);
  if (covered != cursor.covered.end()) bound = std::max(bound, covered->second);
  for (Log::iterator entry : handle->second) {
    if (entry->first > bound && entry->second.writer != addr) return entry;
  }
  return log_.end();
}

std::vector<InvLog::Log::iterator> InvLog::OwedEntries(net::Address addr,
                                                       const Cursor& cursor,
                                                       std::size_t n) {
  std::vector<Log::iterator> out;
  for (auto it = log_.upper_bound(cursor.last_acked);
       it != log_.end() && out.size() < n; ++it) {
    if (Owed(it->second.fh, addr, cursor) == it) out.push_back(it);
  }
  return out;
}

void InvLog::Cover(Cursor& cursor, const Fh& fh) {
  // Entries for `fh` still logged past the cursor were coalesced (in a
  // per-client buffer) into the one just delivered: none is owed.
  auto handle = by_handle_.find(fh);
  if (handle == by_handle_.end()) return;
  if (handle->second.back()->first > cursor.last_acked) cursor.covered[fh] = clock_;
}

void InvLog::Release(Log::iterator entry) {
  if (--entry->second.owed_by > 0) return;
  auto handle = by_handle_.find(entry->second.fh);
  std::erase(handle->second, entry);
  if (handle->second.empty()) by_handle_.erase(handle);
  log_.erase(entry);
}

void InvLog::Reset(net::Address addr, Cursor& cursor, bool broken) {
  for (Log::iterator entry : OwedEntries(addr, cursor, cursor.owed)) Release(entry);
  cursor.owed = 0;
  cursor.covered.clear();
  cursor.broken = broken;
}

void InvLog::Trace(EventType type, const Fh& fh, std::uint64_t timestamp,
                   std::uint32_t count, net::Address peer) const {
  tracer_.Inv(type, host_, fh.fsid, fh.ino, timestamp, count, peer.host);
}

}  // namespace gvfs
