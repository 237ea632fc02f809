#include "gvfs/proxy_server.h"

#include "common/logging.h"
#include "trace/trace.h"

namespace gvfs::proxy {

using nfs3::Fh;
using nfs3::Serialize;

ProxyServer::ProxyServer(sim::Scheduler& sched, rpc::RpcNode& node,
                         net::Address upstream, SessionConfig config,
                         const FaultHooks* faults)
    : sched_(sched),
      node_(node),
      upstream_(node, upstream),
      config_(std::move(config)),
      faults_(faults != nullptr ? *faults : FaultHooks{}),
      inv_log_(InvLog::Role::kServer, node.tracer(), node.address().host,
               config_.inv_buffer_capacity, config_.getinv_batch),
      grace_over_(sched) {
  // NFS procedures pass through (with consistency handling around them).
  static constexpr std::uint32_t kProcs[] = {
      nfs3::kGetAttr, nfs3::kSetAttr, nfs3::kLookup, nfs3::kAccess,
      nfs3::kRead,    nfs3::kWrite,   nfs3::kCreate, nfs3::kMkdir,
      nfs3::kRemove,  nfs3::kRmdir,   nfs3::kRename, nfs3::kLink,
      nfs3::kReadDir, nfs3::kFsStat,  nfs3::kCommit,
  };
  for (std::uint32_t proc : kProcs) {
    node.RegisterHandler(nfs3::kProgram, proc,
                         [this, proc](rpc::CallContext ctx, rpc::Body args) {
                           return HandleNfs(proc, ctx, std::move(args));
                         });
  }
  node.RegisterHandler(kGvfsProgram, kGetInv,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandleGetInv(ctx, std::move(args));
                       });
  node.RegisterHandler(kGvfsProgram, kNotifyInv,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandleNotifyInv(ctx, std::move(args));
                       });
  node.RegisterHandler(kGvfsProgram, kMigrate,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandleMigrate(ctx, std::move(args));
                       });
}

// ---------------------------------------------------------------------------
// Request classification
// ---------------------------------------------------------------------------

ProxyServer::OpInfo ProxyServer::Classify(std::uint32_t proc, ByteView args) {
  OpInfo info;
  info.known = true;
  switch (proc) {
    case nfs3::kGetAttr: {
      auto parsed = nfs3::Parse<nfs3::GetAttrArgs>(args);
      if (parsed) info.reads.push_back(parsed->object);
      break;
    }
    case nfs3::kAccess: {
      auto parsed = nfs3::Parse<nfs3::AccessArgs>(args);
      if (parsed) info.reads.push_back(parsed->object);
      break;
    }
    case nfs3::kLookup: {
      auto parsed = nfs3::Parse<nfs3::LookupArgs>(args);
      if (parsed) info.reads.push_back(parsed->dir);
      break;
    }
    case nfs3::kReadDir: {
      auto parsed = nfs3::Parse<nfs3::ReadDirArgs>(args);
      if (parsed) info.reads.push_back(parsed->dir);
      break;
    }
    case nfs3::kRead: {
      auto parsed = nfs3::Parse<nfs3::ReadArgs>(args);
      if (parsed) {
        info.reads.push_back(parsed->file);
        info.offset = parsed->offset;
      }
      break;
    }
    case nfs3::kFsStat:
      break;  // no per-file consistency impact
    case nfs3::kCommit: {
      auto parsed = nfs3::Parse<nfs3::CommitArgs>(args);
      if (parsed) info.reads.push_back(parsed->file);
      break;
    }
    case nfs3::kWrite: {
      auto parsed = nfs3::Parse<nfs3::WriteArgs>(args);
      if (parsed) {
        info.mutating = true;
        info.writes.push_back(parsed->file);
        info.offset = parsed->offset;
      }
      break;
    }
    case nfs3::kSetAttr: {
      auto parsed = nfs3::Parse<nfs3::SetAttrArgs>(args);
      if (parsed) {
        info.mutating = true;
        info.writes.push_back(parsed->object);
      }
      break;
    }
    case nfs3::kCreate:
    case nfs3::kMkdir: {
      auto parsed = nfs3::Parse<nfs3::CreateArgs>(args);
      if (parsed) {
        info.mutating = true;
        info.writes.push_back(parsed->dir);
      }
      break;
    }
    case nfs3::kRemove:
    case nfs3::kRmdir: {
      auto parsed = nfs3::Parse<nfs3::RemoveArgs>(args);
      if (parsed) {
        info.mutating = true;
        info.writes.push_back(parsed->dir);
        info.victims.push_back({parsed->dir, parsed->name});
      }
      break;
    }
    case nfs3::kRename: {
      auto parsed = nfs3::Parse<nfs3::RenameArgs>(args);
      if (parsed) {
        info.mutating = true;
        info.writes.push_back(parsed->from_dir);
        info.writes.push_back(parsed->to_dir);
        info.victims.push_back({parsed->from_dir, parsed->from_name});
        info.victims.push_back({parsed->to_dir, parsed->to_name});
      }
      break;
    }
    case nfs3::kLink: {
      auto parsed = nfs3::Parse<nfs3::LinkArgs>(args);
      if (parsed) {
        info.mutating = true;
        info.writes.push_back(parsed->dir);
        info.writes.push_back(parsed->file);
      }
      break;
    }
    default:
      info.known = false;
  }
  return info;
}

// ---------------------------------------------------------------------------
// Main NFS path
// ---------------------------------------------------------------------------

sim::Task<Bytes> ProxyServer::HandleNfs(std::uint32_t proc, rpc::CallContext ctx,
                                        rpc::Body args) {
  // The staleness probe stamps new versions with the request's receipt time:
  // it precedes the upstream mtime, so a client that already read the new
  // data never appears stale against its own refresh.
  const SimTime received = sched_.Now();
  co_await WaitGrace();
  RegisterClient(ctx.caller);

  OpInfo info = Classify(proc, args);
  // Fault injection for the trace checker's negative tests: skip the recall
  // step entirely so conflicting delegations can coexist.
  const bool skip_recalls = faults_.skip_recalls;

  // Resolve victims (e.g. the file a REMOVE will unlink) before the mutation
  // lands, so their holders can be recalled / invalidated too.
  std::vector<Fh> victim_fhs;
  for (const auto& [dir, name] : info.victims) {
    nfs3::LookupArgs lookup;
    lookup.dir = dir;
    lookup.name = name;
    rpc::CallOptions lopts;
    lopts.parent = ctx.span;
    auto res = co_await upstream_.Call<nfs3::LookupRes>(nfs3::kLookup, lookup,
                                                        std::move(lopts));
    if (res && res->status == nfs3::Status::kOk) victim_fhs.push_back(res->object);
  }

  // Adaptive sessions run polling as the base model with per-file
  // delegations layered on top, so the recall/grant machinery must be live
  // for them too; DecideGrant's per-file mode gate keeps grants scoped to
  // files the policy engine actually migrated.
  const bool deleg_active =
      config_.model == ConsistencyModel::kDelegationCallback || config_.adaptive;

  if (deleg_active && !skip_recalls) {
    // Recall conflicting delegations before the operation proceeds.
    for (const auto& fh : info.writes) {
      co_await RecallConflicts(fh, ctx.caller, /*write_op=*/true, info.offset,
                               ctx.span);
    }
    for (const auto& fh : victim_fhs) {
      co_await RecallConflicts(fh, ctx.caller, /*write_op=*/true, std::nullopt,
                               ctx.span);
    }
    for (const auto& fh : info.reads) {
      co_await RecallConflicts(fh, ctx.caller, /*write_op=*/false, std::nullopt,
                               ctx.span);
      if (info.offset.has_value()) {
        co_await EnsureBlockWrittenBack(fh, ctx.caller, *info.offset, ctx.span);
      }
    }
  }

  // Forward the raw request upstream (kernel NFS server over loopback).
  ++stats_.forwarded;
  rpc::CallOptions fwd_opts;
  fwd_opts.parent = ctx.span;
  auto reply = co_await node_.Call(upstream_.server(), nfs3::kProgram, proc, args.ToBytes(),
                                   std::move(fwd_opts));
  if (!reply) {
    // Upstream unreachable: surface as a server fault in NFS terms.
    nfs3::GetAttrRes fault;
    fault.status = nfs3::Status::kServerFault;
    co_return Serialize(fault);
  }
  Bytes body = reply->ToBytes();

  // A successful WRITE from the write-back owner retires pending blocks.
  if (proc == nfs3::kWrite && info.offset.has_value() && !info.writes.empty()) {
    auto it = files_.find(info.writes.front());
    if (it != files_.end() && it->second.writeback_owner == ctx.caller) {
      it->second.pending_writeback.erase(*info.offset);
      if (it->second.pending_writeback.empty()) {
        it->second.writeback_owner = net::Address{};
      }
    }
  }

  // Record invalidations for the polling model (only if the mutation
  // actually succeeded — the first u32 of every NFS reply is the status).
  if (info.mutating) {
    xdr::Decoder dec(body);
    auto status = dec.GetU32();
    if (status && *status == 0) {
      for (const auto& fh : info.writes) {
        co_await PropagateInvalidation(fh, ctx.caller, ctx.span);
        if (staleness_ != nullptr) {
          staleness_->StampVersion(fh.fsid, fh.ino, received, ctx.caller.host);
        }
      }
      for (const auto& fh : victim_fhs) {
        co_await PropagateInvalidation(fh, ctx.caller, ctx.span);
        if (staleness_ != nullptr) {
          staleness_->StampVersion(fh.fsid, fh.ino, received, ctx.caller.host);
        }
      }
    }
  }

  // Delegation decision, piggybacked on the reply (§4.3.1).
  if (deleg_active && info.known) {
    DelegationType grant = DelegationType::kNone;
    if (!info.writes.empty()) {
      grant = DecideGrant(info.writes.front(), ctx.caller, /*write_op=*/true);
      TouchSharer(info.writes.front(), ctx.caller, /*write_op=*/true, grant);
    } else if (!info.reads.empty()) {
      grant = DecideGrant(info.reads.front(), ctx.caller, /*write_op=*/false);
      TouchSharer(info.reads.front(), ctx.caller, /*write_op=*/false, grant);
    }
    GrantSuffix suffix;
    suffix.delegation = grant;
    suffix.AppendTo(body);
  }

  co_return body;
}

// ---------------------------------------------------------------------------
// Invalidation polling (§4.2)
// ---------------------------------------------------------------------------

void ProxyServer::RecordInvalidation(const Fh& fh, net::Address writer) {
  if (config_.model != ConsistencyModel::kInvalidationPolling) return;
  stats_.invalidations_recorded += inv_log_.Append(fh, writer);
  stats_.inv_wraps = inv_log_.wraps();
  stats_.inv_entries_peak = inv_log_.peak_entries();
}

bool ProxyServer::OwnsHandle(const Fh& fh) const {
  const auto shard_count =
      static_cast<std::uint32_t>(config_.shard_addrs.size());
  if (shard_count < 2) return true;
  return ShardOf(fh, shard_count) == config_.shard_index;
}

sim::Task<void> ProxyServer::PropagateInvalidation(Fh fh, net::Address writer,
                                                   trace::SpanRef parent) {
  if (OwnsHandle(fh)) {
    RecordInvalidation(fh, writer);
    co_return;
  }
  // Sharded fleet: invalidation state lives only with the owning shard.
  // Awaited before the NFS reply goes out, so the owner has recorded the
  // invalidation before the writer can tell anyone about its update.
  NotifyInvArgs notify;
  notify.file = fh;
  notify.writer_host = writer.host;
  notify.writer_port = writer.port;
  ++stats_.notifyinv_sent;
  rpc::CallOptions opts;
  opts.label = "NOTIFYINV";
  opts.parent = parent;
  const net::Address owner = config_.shard_addrs[ShardOf(
      fh, static_cast<std::uint32_t>(config_.shard_addrs.size()))];
  auto reply = co_await node_.Call(owner, kGvfsProgram, kNotifyInv,
                                   Serialize(notify), std::move(opts));
  if (!reply) {
    GVFS_WARN("shard %u: NOTIFYINV for %llu:%llu to shard host %u failed",
              node_.address().host, static_cast<unsigned long long>(fh.fsid),
              static_cast<unsigned long long>(fh.ino), owner.host);
  }
}

sim::Task<Bytes> ProxyServer::HandleNotifyInv(rpc::CallContext ctx,
                                              rpc::Body args) {
  ++stats_.notifyinv_received;
  auto parsed = nfs3::Parse<NotifyInvArgs>(args);
  if (parsed) {
    const net::Address writer{parsed->writer_host, parsed->writer_port};
    RecordInvalidation(parsed->file, writer);
    if (config_.model == ConsistencyModel::kDelegationCallback ||
        config_.adaptive) {
      co_await RecallConflicts(parsed->file, writer, /*write_op=*/true,
                               std::nullopt, ctx.span);
    }
  }
  co_return Serialize(NotifyInvRes{});
}

sim::Task<Bytes> ProxyServer::HandleGetInv(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.getinv_served;
  RegisterClient(ctx.caller);
  // A malformed request reads as the null timestamp: whole-cache
  // invalidation.
  auto parsed = nfs3::Parse<GetInvArgs>(args);
  const GetInvRes res =
      inv_log_.Serve(ctx.caller, parsed ? parsed->last_timestamp : 0);
  if (res.force_invalidate) ++stats_.force_invalidations;
  co_return Serialize(res);
}

// ---------------------------------------------------------------------------
// Adaptive policy migrations
// ---------------------------------------------------------------------------

sim::Task<Bytes> ProxyServer::HandleMigrate(rpc::CallContext ctx, rpc::Body args) {
  co_await WaitGrace();
  RegisterClient(ctx.caller);
  MigrateRes res;
  auto parsed = nfs3::Parse<MigrateArgs>(args);
  if (!parsed) {
    res.status = 1;
    co_return Serialize(res);
  }
  const Fh fh = parsed->file;
  const auto to = static_cast<policy::FileMode>(parsed->to);
  ++stats_.migrations_served;

  // Entering write delegation conflicts with every existing holder; entering
  // read delegation or polling only with write holders.
  const bool write_op = to == policy::FileMode::kWriteDelegation;
  if (!faults_.skip_recalls) {
    co_await RecallConflicts(fh, ctx.caller, write_op, std::nullopt, ctx.span);
  }

  // The caller dropped its own delegation client-side before sending the
  // MIGRATE; retire the server-side record without a callback.
  auto fit = files_.find(fh);
  if (fit != files_.end()) {
    auto sharer = fit->second.sharers.find(ctx.caller);
    if (sharer != fit->second.sharers.end() &&
        sharer->second.granted != DelegationType::kNone) {
      RecordHoldTime(sharer->second);
      TraceDeleg(trace::EventType::kDelegRelease, fh, sharer->second.granted,
                 ctx.caller.host);
      sharer->second.granted = DelegationType::kNone;
      sharer->second.granted_at = 0;
    }
  }

  // Drain-before-switch: the invalidation the caller is owed for this file
  // is delivered inside the MIGRATE reply, so no mutation recorded under the
  // old mode becomes invisible under the new one (FaultHooks::skip_drain
  // breaks exactly this, for the trace checker's negative tests).
  if (!faults_.skip_drain) {
    res.drained = inv_log_.Drain(fh, ctx.caller);
    stats_.inv_drained += res.drained;
  }

  files_[fh].mode = to;
  if (to != policy::FileMode::kPolling) {
    const DelegationType grant = DecideGrant(fh, ctx.caller, write_op);
    TouchSharer(fh, ctx.caller, write_op, grant);
    res.granted = static_cast<std::uint32_t>(grant);
  }
  node_.tracer().Policy(trace::EventType::kPolicyMigrate, node_.address().host,
                        fh.fsid, fh.ino, parsed->from, parsed->to,
                        trace::kPolicyFlagServerSide);
  co_return Serialize(res);
}

// ---------------------------------------------------------------------------
// Delegations (§4.3)
// ---------------------------------------------------------------------------

void ProxyServer::TraceDeleg(trace::EventType type, const Fh& fh,
                             DelegationType deleg, HostId peer,
                             std::optional<std::uint64_t> wanted) const {
  node_.tracer().Deleg(
      type, node_.address().host, fh.fsid, fh.ino,
      static_cast<std::uint32_t>(deleg), peer,
      trace::kDelegFlagServerSide |
          (wanted.has_value() ? trace::kDelegFlagHasWanted : 0),
      wanted.value_or(0));
}

void ProxyServer::RecordHoldTime(const Sharer& sharer) {
  if (deleg_hold_hist_ == nullptr || sharer.granted_at == 0) return;
  const SimTime held = sched_.Now() - sharer.granted_at;
  deleg_hold_hist_->Record(
      static_cast<std::uint64_t>(held > 0 ? held / kMicrosecond : 0));
}

void ProxyServer::ExpireSharers(const Fh& fh, FileState& state) {
  const SimTime now = sched_.Now();
  for (auto it = state.sharers.begin(); it != state.sharers.end();) {
    if (now - it->second.last_access > config_.deleg_expiry) {
      // Speculated closed; no callback needed — the client-side renewal
      // period is shorter than the expiry, so a live client would have
      // refreshed it.
      if (it->second.granted != DelegationType::kNone) {
        TraceDeleg(trace::EventType::kDelegExpiry, fh, it->second.granted,
                   it->first.host);
        RecordHoldTime(it->second);
      }
      it = state.sharers.erase(it);
    } else {
      ++it;
    }
  }
}

sim::Task<CallbackRes> ProxyServer::SendCallback(net::Address client, Fh fh,
                                                 CallbackType type,
                                                 std::optional<std::uint64_t> wanted,
                                                 trace::SpanRef parent) {
  CallbackArgs args;
  args.file = fh;
  args.type = type;
  if (wanted.has_value()) {
    args.has_wanted_offset = true;
    args.wanted_offset = *wanted;
  }
  ++stats_.callbacks_sent;
  rpc::CallOptions opts;
  opts.label = "CALLBACK";
  opts.timeout = Seconds(2);
  opts.max_retries = 3;
  opts.parent = parent;
  auto reply = co_await node_.Call(client, kGvfsProgram, kCallback,
                                   Serialize(args), std::move(opts));
  if (!reply) co_return CallbackRes{};  // client unreachable; treat as revoked
  auto parsed = nfs3::Parse<CallbackRes>(*reply);
  co_return parsed.value_or(CallbackRes{});
}

sim::Task<void> ProxyServer::RecallConflicts(Fh fh, net::Address requester,
                                             bool write_op,
                                             std::optional<std::uint64_t> offset,
                                             trace::SpanRef parent) {
  auto it = files_.find(fh);
  if (it == files_.end()) co_return;
  ExpireSharers(fh, it->second);

  // Collect the conflicting holders first: the sharer map may be touched by
  // concurrent requests while we await callbacks.
  std::vector<std::pair<net::Address, DelegationType>> to_recall;
  for (const auto& [addr, sharer] : it->second.sharers) {
    if (addr == requester) continue;
    if (sharer.granted == DelegationType::kNone) continue;
    if (write_op || sharer.granted == DelegationType::kWrite) {
      to_recall.push_back({addr, sharer.granted});
    }
  }

  if (to_recall.empty()) co_return;

  ++it->second.recalling;
  if (to_recall.size() == 1) {
    co_await RecallOne(fh, to_recall.front().first, to_recall.front().second,
                       offset, parent);
  } else {
    // Multicast: every conflicting sharer is recalled concurrently and the
    // operation proceeds once all of them answered (or timed out), so the
    // wait costs one callback round trip instead of one per sharer.
    sim::WaitGroup in_flight(sched_);
    for (const auto& [addr, granted] : to_recall) {
      in_flight.Spawn(RecallOne(fh, addr, granted, offset, parent));
    }
    co_await in_flight.Wait();
  }
  auto again = files_.find(fh);
  if (again != files_.end()) --again->second.recalling;
}

sim::Task<void> ProxyServer::RecallOne(Fh fh, net::Address addr,
                                       DelegationType granted,
                                       std::optional<std::uint64_t> offset,
                                       trace::SpanRef parent) {
  const CallbackType type = granted == DelegationType::kWrite
                                ? CallbackType::kRecallWrite
                                : CallbackType::kRecallRead;
  if (type == CallbackType::kRecallWrite) {
    ++stats_.recalls_write;
  } else {
    ++stats_.recalls_read;
  }
  TraceDeleg(trace::EventType::kDelegRecall, fh, granted, addr.host, offset);
  const SimTime recall_start = sched_.Now();
  ++recalls_in_flight_;
  CallbackRes res = co_await SendCallback(addr, fh, type, offset, parent);
  --recalls_in_flight_;
  if (recall_wb_hist_ != nullptr && type == CallbackType::kRecallWrite) {
    // Recall → reply covers the holder's synchronous write-back (§4.3.2).
    const SimTime took = sched_.Now() - recall_start;
    recall_wb_hist_->Record(
        static_cast<std::uint64_t>(took > 0 ? took / kMicrosecond : 0));
  }

  auto again = files_.find(fh);
  if (again == files_.end()) co_return;
  auto sharer = again->second.sharers.find(addr);
  if (sharer != again->second.sharers.end()) {
    RecordHoldTime(sharer->second);
    sharer->second.granted = DelegationType::kNone;
    sharer->second.granted_at = 0;
    TraceDeleg(trace::EventType::kDelegRelease, fh, granted, addr.host);
  }
  if (!res.pending_offsets.empty()) {
    // Block-list optimization: the write delegation is considered revoked
    // now; the server monitors the remaining write-back (§4.3.2).
    again->second.pending_writeback.insert(res.pending_offsets.begin(),
                                           res.pending_offsets.end());
    again->second.writeback_owner = addr;
    if (res.file_size > 0) {
      // Extend the upstream file to the holder's authoritative size so
      // other clients see correct attributes while blocks trickle in.
      nfs3::SetAttrArgs extend;
      extend.object = fh;
      extend.size = res.file_size;
      // gvfs-lint: allow(discarded-expected): best-effort size hint; the authoritative bytes arrive via write-back and a failure here only delays attribute freshness
      (void)co_await upstream_.Call<nfs3::SetAttrRes>(nfs3::kSetAttr, extend);
    }
  }
}

sim::Task<void> ProxyServer::EnsureBlockWrittenBack(Fh fh, net::Address requester,
                                                    std::uint64_t offset,
                                                    trace::SpanRef parent) {
  auto it = files_.find(fh);
  if (it == files_.end()) co_return;
  const std::uint64_t block_offset = offset - offset % config_.block_size;
  if (it->second.pending_writeback.count(block_offset) == 0) co_return;
  if (it->second.writeback_owner == requester) co_return;

  // Requests to blocks not yet written back generate callbacks forcing the
  // owner to submit them promptly (§4.3.2).
  TraceDeleg(trace::EventType::kDelegRecall, fh, DelegationType::kWrite,
             it->second.writeback_owner.host, block_offset);
  ++recalls_in_flight_;
  co_await SendCallback(it->second.writeback_owner, fh, CallbackType::kRecallWrite,
                        block_offset, parent);
  --recalls_in_flight_;
  // The owner's WRITE (observed in HandleNfs) retires the pending offset.
}

DelegationType ProxyServer::DecideGrant(const Fh& fh, net::Address requester,
                                        bool write_op) {
  auto& state = files_[fh];
  ExpireSharers(fh, state);
  // Fault injection for the trace checker's negative tests: grant blindly,
  // ignoring every conflict rule below.
  if (faults_.skip_recalls) {
    return write_op ? DelegationType::kWrite : DelegationType::kRead;
  }
  // Adaptive sessions: delegations exist only for files a MIGRATE moved out
  // of polling, and a read-delegated file never hands out write grants.
  if (config_.adaptive) {
    if (state.mode == policy::FileMode::kPolling) return DelegationType::kNone;
    if (state.mode == policy::FileMode::kReadDelegation && write_op) {
      return DelegationType::kNone;
    }
  }
  // Temporarily non-cacheable: a recall is in flight or a write-back is
  // still being monitored (§4.3.1 / §4.3.2).
  if (state.recalling > 0 || !state.pending_writeback.empty()) {
    return DelegationType::kNone;
  }

  bool other_sharers = false;
  bool other_write_holder = false;
  for (const auto& [addr, sharer] : state.sharers) {
    if (addr == requester) continue;
    other_sharers = true;
    if (sharer.granted == DelegationType::kWrite) other_write_holder = true;
  }

  if (write_op) {
    // Write delegation only when nobody else has the file open (§4.3.1).
    return other_sharers ? DelegationType::kNone : DelegationType::kWrite;
  }
  // Read delegations coexist; a conflicting write holder would have been
  // recalled before we got here, but stay safe if one remains.
  return other_write_holder ? DelegationType::kNone : DelegationType::kRead;
}

void ProxyServer::TouchSharer(const Fh& fh, net::Address client, bool write_op,
                              DelegationType granted) {
  auto& sharer = files_[fh].sharers[client];
  sharer.last_access = sched_.Now();
  if (write_op) sharer.last_write = sched_.Now();
  // A kNone decision (e.g. during a recall) leaves the recorded grant alone;
  // a read refresh never downgrades a recorded write delegation — mirroring
  // the client-side rule so both ends agree on who holds what.
  if (granted == DelegationType::kWrite ||
      (granted == DelegationType::kRead &&
       sharer.granted != DelegationType::kWrite)) {
    if (sharer.granted != granted) {
      TraceDeleg(trace::EventType::kDelegGrant, fh, granted, client.host);
    }
    if (sharer.granted == DelegationType::kNone) sharer.granted_at = sched_.Now();
    sharer.granted = granted;
  }
}

// ---------------------------------------------------------------------------
// Failure handling (§4.3.4)
// ---------------------------------------------------------------------------

sim::Task<void> ProxyServer::WaitGrace() {
  while (in_grace_) co_await grace_over_.Wait();
}

void ProxyServer::Crash() {
  node_.tracer().Node(trace::EventType::kNodeCrash, node_.address().host);
  node_.SetDown(true);
  inv_log_.Clear();
  files_.clear();
  // persistent_clients_ survives: it is stored on disk.
}

sim::Task<void> ProxyServer::Recover() {
  node_.SetDown(false);
  node_.tracer().Node(trace::EventType::kNodeRecover, node_.address().host);
  if (config_.model != ConsistencyModel::kDelegationCallback &&
      !config_.adaptive) {
    co_return;
  }

  in_grace_ = true;
  // A single multicast round: every known client gets a whole-cache
  // callback; write-delegation holders answer with their dirty-file lists.
  // All callbacks go out concurrently so the grace period lasts one slow
  // client's round trip, not the sum over the client list.
  if (persistent_clients_.size() == 1) {
    co_await RecoverClient(*persistent_clients_.begin());
  } else if (!persistent_clients_.empty()) {
    sim::WaitGroup in_flight(sched_);
    for (const auto& client : persistent_clients_) {
      in_flight.Spawn(RecoverClient(client));
    }
    co_await in_flight.Wait();
  }
  in_grace_ = false;
  grace_over_.NotifyAll();
}

sim::Task<void> ProxyServer::RecoverClient(net::Address client) {
  rpc::CallOptions opts;
  opts.label = "CALLBACK";
  opts.timeout = Seconds(2);
  opts.max_retries = 2;
  auto reply = co_await node_.Call(client, kGvfsProgram, kRecovery,
                                   Serialize(RecoveryArgs{}), std::move(opts));
  if (!reply) co_return;  // client itself crashed; it will reconcile later
  auto parsed = nfs3::Parse<RecoveryRes>(*reply);
  if (!parsed) co_return;
  for (const auto& fh : parsed->dirty_files) {
    // Rebuild the open-file table: the client still holds dirty data, so
    // it keeps a write delegation to finish its write-back.
    auto& sharer = files_[fh].sharers[client];
    sharer.last_access = sched_.Now();
    sharer.last_write = sched_.Now();
    if (sharer.granted == DelegationType::kNone) sharer.granted_at = sched_.Now();
    sharer.granted = DelegationType::kWrite;
    TraceDeleg(trace::EventType::kDelegGrant, fh, DelegationType::kWrite,
               client.host);
  }
}

void ProxyServer::RegisterClient(net::Address client) {
  persistent_clients_.insert(client);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void ProxyServer::AttachMetrics(metrics::Registry& registry,
                                const std::string& prefix,
                                metrics::StalenessProbe* probe) {
  staleness_ = probe;
  deleg_hold_hist_ = &registry.GetHistogram(prefix + "deleg_hold_time_us");
  recall_wb_hist_ = &registry.GetHistogram(prefix + "recall_writeback_us");
  registry.AddProbe(prefix + "inv_buffer_occupancy", [this] {
    return static_cast<double>(inv_log_.max_owed());
  });
  metrics::RegisterCounters(registry, prefix, stats_);
  registry.AddProbe(prefix + "inv_buffer_entries", [this] {
    return static_cast<double>(inv_log_.entries());
  });
  registry.AddProbe(prefix + "inv_buffer_clients", [this] {
    return static_cast<double>(inv_log_.clients());
  });
  registry.AddProbe(prefix + "recall_queue_depth", [this] {
    return static_cast<double>(recalls_in_flight_);
  });
}

JsonObject ProxyServer::SnapshotState() const {
  JsonObject snap;
  snap.Add("role", "proxy_server");
  snap.Add("inv_log", inv_log_.Snapshot());
  snap.Add("in_grace", in_grace_);
  snap.Add("recalls_in_flight", recalls_in_flight_);
  snap.Add("known_clients", static_cast<std::uint64_t>(
                                persistent_clients_.size()));

  // Shard map (sharded sessions only).
  if (config_.shard_addrs.size() >= 2) {
    std::vector<JsonObject> addrs;
    for (const net::Address& addr : config_.shard_addrs) {
      addrs.push_back(JsonObject()
                          .Add("host", static_cast<std::uint64_t>(addr.host))
                          .Add("port", static_cast<std::uint64_t>(addr.port)));
    }
    JsonObject shards;
    shards.Add("shard_index", static_cast<std::uint64_t>(config_.shard_index));
    shards.Add("shard_addrs", addrs);
    snap.Add("shard_map", shards);
  }

  // Active files only: anything holding a delegation, mid-recall, pending
  // write-back, or migrated out of polling mode. Quiet files are counted.
  constexpr std::size_t kMaxFiles = 256;
  std::vector<JsonObject> files;
  std::size_t active = 0;
  for (const auto& [fh, state] : files_) {
    bool interesting = state.recalling != 0 ||
                       !state.pending_writeback.empty() ||
                       state.mode != policy::FileMode::kPolling;
    for (const auto& [addr, sharer] : state.sharers) {
      interesting = interesting || sharer.granted != DelegationType::kNone;
    }
    if (!interesting) continue;
    ++active;
    if (files.size() >= kMaxFiles) continue;
    JsonObject f;
    f.Add("fh", std::to_string(fh.fsid) + ":" + std::to_string(fh.ino));
    f.Add("mode", policy::FileModeName(state.mode));
    f.Add("recalling", state.recalling);
    f.Add("pending_writeback",
          static_cast<std::uint64_t>(state.pending_writeback.size()));
    std::vector<JsonObject> grants;
    for (const auto& [addr, sharer] : state.sharers) {
      if (sharer.granted == DelegationType::kNone) continue;
      JsonObject g;
      g.Add("host", static_cast<std::uint64_t>(addr.host));
      g.Add("type", sharer.granted == DelegationType::kWrite ? "write"
                                                             : "read");
      g.Add("granted_at_ns", static_cast<std::uint64_t>(sharer.granted_at));
      grants.push_back(g);
    }
    f.Add("grants", grants);
    files.push_back(f);
  }
  snap.Add("files_tracked", static_cast<std::uint64_t>(files_.size()));
  snap.Add("files_active", static_cast<std::uint64_t>(active));
  snap.Add("files_omitted",
           static_cast<std::uint64_t>(active - files.size()));
  snap.Add("files", files);
  return snap;
}

}  // namespace gvfs::proxy
