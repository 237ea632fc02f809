#include "gvfs/proxy_client.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/sync.h"
#include "trace/trace.h"

namespace gvfs::proxy {

using nfs3::Fh;
using nfs3::Serialize;
using nfs3::Status;

namespace {

/// Negative lookup entries are stored with an invalid (ino 0) handle.
const Fh kNegative{};

}  // namespace

ProxyClient::ProxyClient(sim::Scheduler& sched, rpc::RpcNode& node,
                         net::Address server, SessionConfig config)
    : sched_(sched),
      node_(node),
      upstream_(node, server),
      config_(std::move(config)),
      cache_(config_.block_size),
      poll_period_(config_.poll_period) {
  auto bind = [this, &node](nfs3::Proc proc,
                            sim::Task<Bytes> (ProxyClient::*method)(
                                rpc::CallContext, rpc::Body)) {
    node.RegisterHandler(nfs3::kProgram, proc,
                         [this, method](rpc::CallContext ctx, rpc::Body args) {
                           return (this->*method)(ctx, std::move(args));
                         });
  };
  bind(nfs3::kGetAttr, &ProxyClient::HandleGetAttr);
  bind(nfs3::kLookup, &ProxyClient::HandleLookup);
  bind(nfs3::kAccess, &ProxyClient::HandleAccess);
  bind(nfs3::kRead, &ProxyClient::HandleRead);
  bind(nfs3::kWrite, &ProxyClient::HandleWrite);
  bind(nfs3::kCommit, &ProxyClient::HandleCommit);
  bind(nfs3::kCreate, &ProxyClient::HandleCreate);
  bind(nfs3::kMkdir, &ProxyClient::HandleMkdir);
  bind(nfs3::kRemove, &ProxyClient::HandleRemove);
  bind(nfs3::kRmdir, &ProxyClient::HandleRmdir);
  bind(nfs3::kRename, &ProxyClient::HandleRename);
  bind(nfs3::kLink, &ProxyClient::HandleLink);
  bind(nfs3::kSetAttr, &ProxyClient::HandleSetAttr);
  node.RegisterHandler(nfs3::kProgram, nfs3::kReadDir,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandlePassthrough(nfs3::kReadDir, ctx,
                                                  std::move(args));
                       });
  node.RegisterHandler(nfs3::kProgram, nfs3::kFsStat,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandlePassthrough(nfs3::kFsStat, ctx,
                                                  std::move(args));
                       });
  node.RegisterHandler(kGvfsProgram, kCallback,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandleCallback(ctx, std::move(args));
                       });
  node.RegisterHandler(kGvfsProgram, kRecovery,
                       [this](rpc::CallContext ctx, rpc::Body args) {
                         return HandleRecovery(ctx, std::move(args));
                       });
  if (config_.adaptive) {
    policy::PolicyConfig pc;
    pc.dwell = config_.policy_dwell;
    pc.promote_reads = config_.policy_promote_reads;
    pc.write_hot = config_.policy_write_hot;
    pc.storm_recalls = config_.policy_storm_recalls;
    pc.storm_freeze = config_.policy_storm_freeze;
    pc.write_delegation = config_.cache_mode == CacheMode::kWriteBack;
    policy_ = std::make_unique<policy::PolicyEngine>(pc);
  }
}

// ---------------------------------------------------------------------------
// Validity predicates
// ---------------------------------------------------------------------------

bool ProxyClient::DelegationFresh(const Fh& fh, bool need_write) const {
  auto it = delegations_.find(fh);
  if (it == delegations_.end()) return false;
  if (it->second.type == DelegationType::kNone) return false;
  if (need_write && it->second.type != DelegationType::kWrite) return false;
  // Serve locally only while renewal is not due; past the renewal period a
  // request bypasses the cache to refresh the delegation (§4.3.1).
  return sched_.Now() - it->second.refreshed_at < config_.deleg_renew;
}

bool ProxyClient::AttrServable(const Fh& fh) const {
  const DiskCache::AttrEntry* entry = cache_.ValidAttr(fh);
  if (entry == nullptr) return false;
  switch (config_.model) {
    case ConsistencyModel::kTtl:
      return sched_.Now() - entry->fetched_at <= config_.attr_ttl;
    case ConsistencyModel::kInvalidationPolling:
      return true;  // valid until a GETINV poll invalidates it
    case ConsistencyModel::kDelegationCallback:
      return DelegationFresh(fh, /*need_write=*/false);
  }
  return false;
}

void ProxyClient::StoreGrant(const Fh& fh, DelegationType type) {
  if (type == DelegationType::kNone) {
    delegations_.erase(fh);
    return;
  }
  auto& deleg = delegations_[fh];
  // A write delegation is never downgraded by a read grant refresh.
  if (!(deleg.type == DelegationType::kWrite && type == DelegationType::kRead)) {
    if (deleg.type != type) {
      node_.tracer().Deleg(trace::EventType::kDelegGrant, node_.address().host,
                           fh.fsid, fh.ino, static_cast<std::uint32_t>(type),
                           upstream_.server().host, 0, 0);
    }
    deleg.type = type;
  }
  deleg.refreshed_at = sched_.Now();
}

void ProxyClient::DropDelegation(const Fh& fh) { delegations_.erase(fh); }

void ProxyClient::Absorb(const Fh& fh, const nfs3::PostOpAttr& attr, bool own_write) {
  if (!attr.has_value()) return;
  cache_.ObserveMtime(fh, attr->mtime, attr->size, own_write);
  cache_.StoreAttr(fh, *attr, sched_.Now());
  // kCacheMiss marks "entry (re)validated from an upstream reply" — the
  // refresh edge the stale-read invariant pairs against invalidations.
  node_.tracer().Cache(trace::EventType::kCacheMiss, node_.address().host,
                       fh.fsid, fh.ino, trace::kNoOffset, "");
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void ProxyClient::RecordCachedRead(const Fh& fh) {
  if (staleness_ == nullptr) return;
  const DiskCache::AttrEntry* entry = cache_.ValidAttr(fh);
  if (entry == nullptr) return;
  staleness_->OnCachedRead(fh.fsid, fh.ino, node_.address().host,
                           entry->fetched_at, sched_.Now());
}

void ProxyClient::AttachMetrics(metrics::Registry& registry,
                                const std::string& prefix,
                                metrics::StalenessProbe* probe) {
  staleness_ = probe;
  registry.AddProbe(prefix + "cache_hit_ratio", [this] {
    const double total =
        static_cast<double>(stats_.served_locally + stats_.forwarded);
    return total > 0 ? static_cast<double>(stats_.served_locally) / total : 0.0;
  });
  metrics::RegisterCounters(registry, prefix, stats_);
  registry.AddProbe(prefix + "cache_bytes", [this] {
    return static_cast<double>(cache_.CachedBytes());
  });
  registry.AddProbe(prefix + "cache_attrs", [this] {
    return static_cast<double>(cache_.AttrCount());
  });
  registry.AddProbe(prefix + "wb_queue_depth", [this] {
    return static_cast<double>(cache_.TotalDirtyBlocks());
  });
  if (policy_ != nullptr) policy_->AttachMetrics(registry, prefix);
}

JsonObject ProxyClient::SnapshotState() const {
  JsonObject snap;
  snap.Add("role", "proxy_client");
  snap.Add("running", running_);
  snap.Add("poll_period_ns", static_cast<std::uint64_t>(poll_period_));
  snap.Add("cache_bytes", cache_.CachedBytes());
  snap.Add("cache_attrs", static_cast<std::uint64_t>(cache_.AttrCount()));
  snap.Add("dirty_blocks",
           static_cast<std::uint64_t>(cache_.TotalDirtyBlocks()));

  std::vector<JsonObject> targets;
  for (const PollTarget& t : poll_targets_) {
    JsonObject o;
    o.Add("host", static_cast<std::uint64_t>(t.addr.host));
    o.Add("port", static_cast<std::uint64_t>(t.addr.port));
    o.Add("timestamp", t.timestamp);
    targets.push_back(o);
  }
  snap.Add("poll_targets", targets);

  std::vector<JsonObject> delegations;
  for (const auto& [fh, d] : delegations_) {
    if (d.type == DelegationType::kNone) continue;
    JsonObject o;
    o.Add("fh", std::to_string(fh.fsid) + ":" + std::to_string(fh.ino));
    o.Add("type", d.type == DelegationType::kWrite ? "write" : "read");
    o.Add("refreshed_at_ns", static_cast<std::uint64_t>(d.refreshed_at));
    delegations.push_back(o);
  }
  snap.Add("delegations", delegations);

  if (policy_ != nullptr) snap.Add("policy", policy_->SnapshotState());
  return snap;
}

// ---------------------------------------------------------------------------
// Upstream forwarding
// ---------------------------------------------------------------------------

net::Address ProxyClient::UpstreamFor(const std::optional<Fh>& fh) const {
  const auto shard_count =
      static_cast<std::uint32_t>(config_.shard_addrs.size());
  if (shard_count < 2 || !fh.has_value()) return upstream_.server();
  return config_.shard_addrs[ShardOf(*fh, shard_count)];
}

sim::Task<std::optional<Bytes>> ProxyClient::Upstream(std::uint32_t proc, Bytes args,
                                                      std::optional<Fh> granted_fh,
                                                      std::string label,
                                                      trace::SpanRef parent) {
  ++stats_.forwarded;
  rpc::CallOptions opts;
  opts.label = std::move(label);
  opts.max_retries = 100;  // hard-mount semantics: requests are simply retried
  opts.parent = parent;
  auto reply = co_await node_.Call(UpstreamFor(granted_fh), nfs3::kProgram,
                                   proc, std::move(args), std::move(opts));
  if (!reply) co_return std::nullopt;
  Bytes body = reply->ToBytes();
  // Adaptive sessions speak the delegation wire format too: the server
  // piggybacks grant suffixes on every known NFS reply.
  if (config_.model == ConsistencyModel::kDelegationCallback ||
      config_.adaptive) {
    GrantSuffix suffix = GrantSuffix::ExtractFrom(body);
    if (granted_fh.has_value()) StoreGrant(*granted_fh, suffix.delegation);
  }
  co_return body;
}

namespace {

template <typename Res>
Bytes Fault() {
  Res res;
  res.status = Status::kIo;
  return Serialize(res);
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel-facing handlers
// ---------------------------------------------------------------------------

sim::Task<Bytes> ProxyClient::HandleGetAttr(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::GetAttrArgs>(args);
  if (!parsed) co_return Fault<nfs3::GetAttrRes>();
  const Fh fh = parsed->object;

  if (AttrServable(fh)) {
    ++stats_.served_locally;
    node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                         fh.fsid, fh.ino, trace::kNoOffset, "GETATTR");
    RecordCachedRead(fh);
    // Snapshot before the disk-access sleep: a concurrent callback may
    // invalidate the entry while we wait (the reply is already "in flight").
    nfs3::GetAttrRes res;
    res.attr = cache_.ValidAttr(fh)->attr;
    co_await sim::Sleep(sched_, config_.disk_access_time);
    co_return Serialize(res);
  }

  // A forwarded GETATTR must reflect every write already acknowledged to the
  // kernel (noac kernels size their appends from it): drain the pipeline.
  co_await DrainAsyncWrites(fh);

  auto body = co_await Upstream(nfs3::kGetAttr, args.ToBytes(), fh, "GETATTR",
                                ctx.span);
  if (!body) co_return Fault<nfs3::GetAttrRes>();
  auto res = nfs3::Parse<nfs3::GetAttrRes>(*body);
  if (res && res->status == Status::kOk) {
    Absorb(fh, res->attr, /*own_write=*/false);
  } else if (res) {
    cache_.InvalidateAttr(fh);
  }
  co_return std::move(*body);
}

sim::Task<bool> ProxyClient::RefreshDirListing(Fh dir, trace::SpanRef parent) {
  const DiskCache::AttrEntry* dir_attr = cache_.ValidAttr(dir);
  if (dir_attr == nullptr) co_return false;
  const SimTime expected_mtime = dir_attr->attr.mtime;

  // Collect the complete listing first; apply atomically afterwards.
  std::vector<std::pair<std::string, Fh>> listing;
  std::uint64_t cookie = 0;
  while (true) {
    nfs3::ReadDirArgs args;
    args.dir = dir;
    args.cookie = cookie;
    args.max_entries = 256;
    auto body = co_await Upstream(nfs3::kReadDir, Serialize(args), dir,
                                  "READDIR", parent);
    if (!body) co_return false;
    auto res = nfs3::Parse<nfs3::ReadDirRes>(*body);
    if (!res || res->status != Status::kOk) co_return false;
    Absorb(dir, res->dir_attr, /*own_write=*/false);
    for (auto& entry : res->entries) {
      cookie = entry.cookie;
      listing.push_back({std::move(entry.name), Fh{dir.fsid, entry.fileid}});
    }
    if (res->eof || res->entries.empty()) break;
  }

  // The directory may have changed while we paged: only commit if the
  // attributes we trust now match what we started from (or were refreshed by
  // the READDIR replies themselves).
  const DiskCache::AttrEntry* now_attr = cache_.ValidAttr(dir);
  if (now_attr == nullptr) co_return false;
  if (now_attr->attr.mtime != expected_mtime &&
      config_.model == ConsistencyModel::kInvalidationPolling) {
    // Polling model: a newer mtime simply means our refresh already carries
    // the latest state; proceed.
  }
  cache_.ClearLookups(dir);
  for (const auto& [name, child] : listing) {
    cache_.StoreLookup(dir, name, child);
  }
  co_await sim::Sleep(sched_, config_.disk_access_time);  // cache rebuild
  co_return true;
}

sim::Task<Bytes> ProxyClient::HandleLookup(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::LookupArgs>(args);
  if (!parsed) co_return Fault<nfs3::LookupRes>();
  const Fh dir = parsed->dir;
  const std::string name = parsed->name;

  // Local reply possible when the directory state is trusted and (for
  // positive entries) the child's attributes are also servable.
  if (AttrServable(dir)) {
    const Fh* child = cache_.ValidLookup(dir, name);
    if (child == nullptr && config_.readdir_refresh &&
        cache_.HasLookupEntries(dir)) {
      // The directory changed and its old name entries are stale: rebuild
      // them all with one paginated READDIR instead of per-name LOOKUPs.
      if (co_await RefreshDirListing(dir, ctx.span) && AttrServable(dir)) {
        child = cache_.ValidLookup(dir, name);
        if (child == nullptr) {
          // Complete listing seen: the name definitively does not exist.
          cache_.StoreLookup(dir, name, kNegative);
          child = cache_.ValidLookup(dir, name);
        }
      }
    }
    if (child != nullptr) {
      if (!child->valid()) {
        // Cached negative entry.
        ++stats_.served_locally;
        node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                             dir.fsid, dir.ino, trace::kNoOffset, "LOOKUP");
        RecordCachedRead(dir);
        nfs3::LookupRes res;
        res.status = Status::kNoEnt;
        res.dir_attr = cache_.ValidAttr(dir)->attr;
        co_await sim::Sleep(sched_, config_.disk_access_time);
        co_return Serialize(res);
      }
      if (AttrServable(*child)) {
        ++stats_.served_locally;
        node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                             dir.fsid, dir.ino, trace::kNoOffset, "LOOKUP");
        node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                             child->fsid, child->ino, trace::kNoOffset,
                             "LOOKUP");
        RecordCachedRead(*child);
        nfs3::LookupRes res;
        res.object = *child;
        res.obj_attr = cache_.ValidAttr(*child)->attr;
        res.dir_attr = cache_.ValidAttr(dir)->attr;
        co_await sim::Sleep(sched_, config_.disk_access_time);
        co_return Serialize(res);
      }
    }
  }

  auto body = co_await Upstream(nfs3::kLookup, args.ToBytes(), dir, "LOOKUP",
                                ctx.span);
  if (!body) co_return Fault<nfs3::LookupRes>();
  auto res = nfs3::Parse<nfs3::LookupRes>(*body);
  if (res) {
    Absorb(dir, res->dir_attr, /*own_write=*/false);
    if (res->status == Status::kOk) {
      Absorb(res->object, res->obj_attr, /*own_write=*/false);
      cache_.StoreLookup(dir, name, res->object);
    } else if (res->status == Status::kNoEnt) {
      cache_.StoreLookup(dir, name, kNegative);
    }
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleAccess(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::AccessArgs>(args);
  if (!parsed) co_return Fault<nfs3::AccessRes>();
  const Fh fh = parsed->object;
  if (AttrServable(fh)) {
    ++stats_.served_locally;
    node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                         fh.fsid, fh.ino, trace::kNoOffset, "ACCESS");
    RecordCachedRead(fh);
    nfs3::AccessRes res;
    res.attr = cache_.ValidAttr(fh)->attr;
    res.access = parsed->access;
    co_await sim::Sleep(sched_, config_.disk_access_time);
    co_return Serialize(res);
  }
  auto body = co_await Upstream(nfs3::kAccess, args.ToBytes(), fh, "ACCESS",
                                ctx.span);
  if (!body) co_return Fault<nfs3::AccessRes>();
  auto res = nfs3::Parse<nfs3::AccessRes>(*body);
  if (res && res->status == Status::kOk) Absorb(fh, res->attr, false);
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleRead(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::ReadArgs>(args);
  if (!parsed) co_return Fault<nfs3::ReadRes>();
  const Fh fh = parsed->file;
  if (policy_ != nullptr) policy_->OnRead({fh.fsid, fh.ino});
  const std::uint32_t bs = cache_.block_size();
  const std::uint64_t index = parsed->offset / bs;
  const bool sequential = cache_.NoteReadAccess(fh, index);

  // If a read-ahead READ for this very block is in flight, join it rather
  // than racing it upstream with a duplicate; the re-check below then serves
  // the prefetched block (or falls through if it was discarded).
  while (prefetch_inflight_.count({fh, index}) > 0) {
    co_await prefetch_done_.Wait();
  }

  if (AttrServable(fh)) {
    const DiskCache::Block* block = cache_.FindBlock(fh, index);
    if (block != nullptr) {
      // Keep the pipeline ahead of the reader: when a sequential scan is
      // being served from cache, start fetching the blocks past the window
      // edge before the reader faults on them.
      if (sequential) MaybeReadAhead(fh, index);
      const std::uint64_t file_size = cache_.ValidAttr(fh)->attr.size;
      const std::uint64_t block_start = index * bs;
      const std::uint64_t in_block = parsed->offset - block_start;
      nfs3::ReadRes res;
      res.attr = cache_.ValidAttr(fh)->attr;
      if (in_block < block->data.size()) {
        const std::uint64_t take = std::min<std::uint64_t>(
            block->data.size() - in_block, parsed->count);
        res.data.assign(
            block->data.begin() + static_cast<std::ptrdiff_t>(in_block),
            block->data.begin() + static_cast<std::ptrdiff_t>(in_block + take));
      }
      res.count = static_cast<std::uint32_t>(res.data.size());
      res.eof = parsed->offset + res.count >= file_size;
      ++stats_.served_locally;
      node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                           fh.fsid, fh.ino, block_start, "READ");
      RecordCachedRead(fh);
      co_await sim::Sleep(sched_, config_.disk_access_time);
      co_return Serialize(res);
    }
  }

  // Read-through must not overtake the async write-through pipeline: drain
  // any in-flight WRITEs to this file before asking the server for bytes.
  co_await DrainAsyncWrites(fh);

  auto body = co_await Upstream(nfs3::kRead, args.ToBytes(), fh, "READ",
                                ctx.span);
  if (!body) co_return Fault<nfs3::ReadRes>();
  auto res = nfs3::Parse<nfs3::ReadRes>(*body);
  if (res && res->status == Status::kOk) {
    // Initialize the file entry's server-state tracking before absorbing the
    // post-op attrs, so the first absorb is not treated as a remote change.
    if (res->attr.has_value()) {
      auto& fe = cache_.FileFor(fh);
      if (fe.blocks.empty() && fe.mtime_seen == 0) {
        fe.mtime_seen = res->attr->mtime;
        fe.size_seen = res->attr->size;
      }
    }
    Absorb(fh, res->attr, /*own_write=*/false);
    if (parsed->offset % bs == 0 && !res->data.empty()) {
      cache_.StoreBlock(fh, index, res->data, /*dirty=*/false);
      if (sequential) MaybeReadAhead(fh, index);
      co_await sim::Sleep(sched_, config_.disk_access_time);  // cache insert
    }
  }
  co_return std::move(*body);
}

// ---------------------------------------------------------------------------
// Sequential read-ahead
// ---------------------------------------------------------------------------

void ProxyClient::MaybeReadAhead(const Fh& fh, std::uint64_t index) {
  if (config_.read_ahead == 0) return;
  const std::uint32_t bs = cache_.block_size();
  // The known size bounds the window: never prefetch past EOF.
  DiskCache::AttrEntry* attr = cache_.AnyAttr(fh);
  if (attr == nullptr) return;
  const std::uint64_t size = attr->attr.size;
  for (std::uint32_t k = 1; k <= config_.read_ahead; ++k) {
    const std::uint64_t next = index + k;
    if (next * bs >= size) break;
    if (cache_.FindBlock(fh, next) != nullptr) continue;
    if (!prefetch_inflight_.insert({fh, next}).second) continue;
    sim::Spawn(Prefetch(fh, next));
  }
}

sim::Task<void> ProxyClient::Prefetch(Fh fh, std::uint64_t index) {
  const std::uint64_t epoch = epoch_;
  nfs3::ReadArgs args;
  args.file = fh;
  args.offset = index * cache_.block_size();
  args.count = cache_.block_size();
  auto body = co_await Upstream(nfs3::kRead, Serialize(args), fh, "READ");
  prefetch_inflight_.erase({fh, index});

  if (body && epoch == epoch_) {
    auto res = nfs3::Parse<nfs3::ReadRes>(*body);
    if (res && res->status == Status::kOk && !res->data.empty()) {
      // Deliberately no Absorb: a prefetched reply must never re-validate
      // attributes a concurrent invalidation just cleared — that would let
      // the next fault be served from a stale prefetched block. The block is
      // kept only if the file is still at the mtime this client last
      // trusted, and never clobbers dirty data.
      DiskCache::FileEntry* entry = cache_.FindFile(fh);
      const bool changed = entry == nullptr ||
                           (res->attr.has_value() && entry->mtime_seen != 0 &&
                            res->attr->mtime != entry->mtime_seen);
      const DiskCache::Block* existing = cache_.FindBlock(fh, index);
      if (changed) {
        ++stats_.prefetches_discarded;
      } else if (existing == nullptr || !existing->dirty) {
        cache_.StoreBlock(fh, index, std::move(res->data), /*dirty=*/false);
        ++stats_.blocks_prefetched;
      }
    }
  }
  // Wake demand reads parked on this block (whether or not it was kept).
  prefetch_done_.NotifyAll();
}

sim::Task<Bytes> ProxyClient::HandleWrite(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::WriteArgs>(args);
  if (!parsed) co_return Fault<nfs3::WriteRes>();
  const Fh fh = parsed->file;
  if (policy_ != nullptr) policy_->OnWrite({fh.fsid, fh.ino});
  const std::uint32_t bs = cache_.block_size();

  // Adaptive sessions absorb writes only under a live write delegation: the
  // base polling model alone gives no exclusivity promise for the file.
  const bool can_absorb =
      config_.cache_mode == CacheMode::kWriteBack &&
      cache_.ValidAttr(fh) != nullptr &&
      (config_.model != ConsistencyModel::kDelegationCallback ||
       DelegationFresh(fh, /*need_write=*/true)) &&
      (!config_.adaptive || DelegationFresh(fh, /*need_write=*/true));

  if (can_absorb) {
    // Write-back: absorb into the disk cache; the data is stable there.
    std::uint64_t pos = parsed->offset;
    std::size_t consumed = 0;
    while (consumed < parsed->data.size()) {
      const std::uint64_t index = pos / bs;
      const std::uint64_t in_block = pos - index * bs;
      const std::uint64_t take =
          std::min<std::uint64_t>(bs - in_block, parsed->data.size() - consumed);
      Bytes chunk(parsed->data.begin() + static_cast<std::ptrdiff_t>(consumed),
                  parsed->data.begin() + static_cast<std::ptrdiff_t>(consumed + take));
      cache_.WriteIntoBlock(fh, index, in_block, chunk);
      pos += take;
      consumed += take;
    }
    // Locally fabricated attributes: size grows, mtime advances.
    DiskCache::AttrEntry* entry = cache_.AnyAttr(fh);
    entry->attr.size =
        std::max<std::uint64_t>(entry->attr.size, parsed->offset + parsed->data.size());
    entry->attr.mtime = sched_.Now();
    entry->valid = true;

    ++stats_.served_locally;
    node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                         fh.fsid, fh.ino, parsed->offset, "WRITE");
    nfs3::WriteRes res;
    res.attr = entry->attr;
    res.count = static_cast<std::uint32_t>(parsed->data.size());
    res.committed = nfs3::StableHow::kFileSync;  // disk cache is stable storage
    co_await sim::Sleep(sched_, config_.disk_access_time);
    co_return Serialize(res);
  }

  // Pipelined write-through: an unstable WRITE may be acknowledged before it
  // reaches the server — NFSv3 defers durability to COMMIT — so the forward
  // happens asynchronously through the write window and the kernel's next
  // WRITE overlaps this one's WAN round trip. Gated on wb_window > 1 (the
  // default stays strictly serial) and on read-only cache mode: in
  // write-back mode a forwarded WRITE is the delegation-acquisition probe
  // and must stay synchronous so the following writes absorb locally.
  if (config_.wb_window > 1 && config_.cache_mode == CacheMode::kReadOnly &&
      parsed->stable == nfs3::StableHow::kUnstable &&
      cache_.AnyAttr(fh) != nullptr) {
    const std::uint64_t start = parsed->offset;
    const std::uint64_t end = parsed->offset + parsed->data.size();
    AsyncWrites& aw = AsyncWritesFor(fh);
    for (const auto& range : aw.ranges) {
      if (start < range.second && range.first < end) {
        // Overlapping in-flight write: drain first so upstream applies the
        // two writes in submission order.
        co_await DrainAsyncWrites(fh);
        break;
      }
    }
    // gvfs-lint: allow(lock-across-suspend): backpressure by design — the slot spans the detached WRITE and is released in ForwardWriteAsync when it lands
    co_await wt_slots_.Acquire();
    AsyncWrites& aw2 = AsyncWritesFor(fh);  // re-lookup: map may have grown
    aw2.ranges.emplace_back(start, end);
    if (parsed->offset % bs == 0) {
      cache_.StoreBlock(fh, parsed->offset / bs, parsed->data, /*dirty=*/false);
    }
    DiskCache::AttrEntry* entry = cache_.AnyAttr(fh);
    entry->attr.size = std::max<std::uint64_t>(entry->attr.size, end);
    entry->attr.mtime = sched_.Now();
    aw2.in_flight.Spawn(ForwardWriteAsync(fh, std::move(args), start, end));

    nfs3::WriteRes res;
    res.attr = entry->attr;
    res.count = static_cast<std::uint32_t>(parsed->data.size());
    res.committed = nfs3::StableHow::kUnstable;
    co_await sim::Sleep(sched_, config_.disk_access_time);
    co_return Serialize(res);
  }

  auto body = co_await Upstream(nfs3::kWrite, args.ToBytes(), fh, "WRITE",
                                ctx.span);
  if (!body) co_return Fault<nfs3::WriteRes>();
  auto res = nfs3::Parse<nfs3::WriteRes>(*body);
  if (res && res->status == Status::kOk) {
    if (res->attr.has_value()) {
      auto& fe = cache_.FileFor(fh);
      if (fe.blocks.empty() && fe.mtime_seen == 0) fe.mtime_seen = res->attr->mtime;
    }
    Absorb(fh, res->attr, /*own_write=*/true);
    if (parsed->offset % bs == 0) {
      cache_.StoreBlock(fh, parsed->offset / bs, parsed->data, /*dirty=*/false);
    }
  }
  co_return std::move(*body);
}

ProxyClient::AsyncWrites& ProxyClient::AsyncWritesFor(const Fh& fh) {
  return async_writes_.try_emplace(fh, sched_).first->second;
}

sim::Task<void> ProxyClient::ForwardWriteAsync(Fh fh, rpc::Body args,
                                               std::uint64_t start,
                                               std::uint64_t end) {
  const std::uint64_t epoch = epoch_;
  auto body = co_await Upstream(nfs3::kWrite, args.ToBytes(), fh, "WRITE");
  AsyncWrites& aw = AsyncWritesFor(fh);
  for (auto it = aw.ranges.begin(); it != aw.ranges.end(); ++it) {
    if (it->first == start && it->second == end) {
      aw.ranges.erase(it);
      break;
    }
  }
  wt_slots_.Release();
  if (epoch != epoch_) co_return;  // crashed while in flight
  auto res = body ? nfs3::Parse<nfs3::WriteRes>(*body)
                  : std::optional<nfs3::WriteRes>{};
  if (!body || !res || res->status != Status::kOk) {
    aw.failed = true;  // surfaced by the next COMMIT
    co_return;
  }
  if (res->attr.has_value()) {
    auto& fe = cache_.FileFor(fh);
    if (fe.blocks.empty() && fe.mtime_seen == 0) fe.mtime_seen = res->attr->mtime;
  }
  Absorb(fh, res->attr, /*own_write=*/true);
}

sim::Task<void> ProxyClient::DrainAsyncWrites(Fh fh) {
  auto it = async_writes_.find(fh);
  if (it == async_writes_.end()) co_return;
  while (it->second.in_flight.Outstanding() > 0) {
    // gvfs-lint: allow(iter-after-suspend): async_writes_ entries are only ever inserted, never erased; std::map iterators survive insertion
    co_await it->second.in_flight.Wait();
  }
}

sim::Task<Bytes> ProxyClient::HandleCommit(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::CommitArgs>(args);
  if (!parsed) co_return Fault<nfs3::CommitRes>();
  const Fh fh = parsed->file;

  // Settle the async write-through pipeline before promising durability.
  auto aw_it = async_writes_.find(fh);
  if (aw_it != async_writes_.end()) {
    co_await DrainAsyncWrites(fh);
    // gvfs-lint: allow(iter-after-suspend): async_writes_ entries are only ever inserted, never erased; std::map iterators survive insertion
    if (aw_it->second.failed) {
      aw_it->second.failed = false;
      co_return Fault<nfs3::CommitRes>();
    }
  }

  if (config_.cache_mode == CacheMode::kWriteBack &&
      cache_.DirtyBlockCount(fh) > 0) {
    // The disk cache is stable storage; the commit is satisfied locally and
    // the data reaches the server on the next flush (§4.3, write delegation
    // "can further delay writes").
    ++stats_.served_locally;
    node_.tracer().Cache(trace::EventType::kCacheHit, node_.address().host,
                         fh.fsid, fh.ino, trace::kNoOffset, "COMMIT");
    nfs3::CommitRes res;
    const DiskCache::AttrEntry* entry = cache_.ValidAttr(fh);
    if (entry != nullptr) res.attr = entry->attr;
    co_await sim::Sleep(sched_, config_.disk_access_time);
    co_return Serialize(res);
  }

  auto body = co_await Upstream(nfs3::kCommit, args.ToBytes(), fh, "COMMIT",
                                ctx.span);
  if (!body) co_return Fault<nfs3::CommitRes>();
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleCreate(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::CreateArgs>(args);
  if (!parsed) co_return Fault<nfs3::CreateRes>();
  const Fh dir = parsed->dir;
  auto body = co_await Upstream(nfs3::kCreate, args.ToBytes(), dir, "CREATE",
                                ctx.span);
  if (!body) co_return Fault<nfs3::CreateRes>();
  auto res = nfs3::Parse<nfs3::CreateRes>(*body);
  if (res) {
    Absorb(dir, res->dir_attr, /*own_write=*/true);
    if (res->status == Status::kOk) {
      Absorb(res->object, res->obj_attr, /*own_write=*/true);
      cache_.StoreLookup(dir, parsed->name, res->object);
    }
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleMkdir(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::MkdirArgs>(args);
  if (!parsed) co_return Fault<nfs3::MkdirRes>();
  const Fh dir = parsed->dir;
  auto body = co_await Upstream(nfs3::kMkdir, args.ToBytes(), dir, "MKDIR",
                                ctx.span);
  if (!body) co_return Fault<nfs3::MkdirRes>();
  auto res = nfs3::Parse<nfs3::MkdirRes>(*body);
  if (res) {
    Absorb(dir, res->dir_attr, /*own_write=*/true);
    if (res->status == Status::kOk) {
      Absorb(res->object, res->obj_attr, /*own_write=*/true);
      cache_.StoreLookup(dir, parsed->name, res->object);
    }
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleRemove(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::RemoveArgs>(args);
  if (!parsed) co_return Fault<nfs3::RemoveRes>();
  const Fh dir = parsed->dir;
  auto body = co_await Upstream(nfs3::kRemove, args.ToBytes(), dir, "REMOVE",
                                ctx.span);
  if (!body) co_return Fault<nfs3::RemoveRes>();
  auto res = nfs3::Parse<nfs3::RemoveRes>(*body);
  if (res) {
    Absorb(dir, res->dir_attr, /*own_write=*/true);
    if (res->status == Status::kOk) {
      const Fh* victim = cache_.ValidLookup(dir, parsed->name);
      if (victim != nullptr && victim->valid()) cache_.InvalidateAttr(*victim);
      cache_.StoreLookup(dir, parsed->name, kNegative);
    }
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleRmdir(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::RmdirArgs>(args);
  if (!parsed) co_return Fault<nfs3::RmdirRes>();
  const Fh dir = parsed->dir;
  auto body = co_await Upstream(nfs3::kRmdir, args.ToBytes(), dir, "RMDIR",
                                ctx.span);
  if (!body) co_return Fault<nfs3::RmdirRes>();
  auto res = nfs3::Parse<nfs3::RmdirRes>(*body);
  if (res) {
    Absorb(dir, res->dir_attr, /*own_write=*/true);
    if (res->status == Status::kOk) cache_.StoreLookup(dir, parsed->name, kNegative);
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleRename(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::RenameArgs>(args);
  if (!parsed) co_return Fault<nfs3::RenameRes>();
  auto body = co_await Upstream(nfs3::kRename, args.ToBytes(), parsed->from_dir,
                                "RENAME", ctx.span);
  if (!body) co_return Fault<nfs3::RenameRes>();
  auto res = nfs3::Parse<nfs3::RenameRes>(*body);
  if (res) {
    Absorb(parsed->from_dir, res->from_dir_attr, /*own_write=*/true);
    Absorb(parsed->to_dir, res->to_dir_attr, /*own_write=*/true);
    if (res->status == Status::kOk) {
      cache_.DropLookup(parsed->from_dir, parsed->from_name);
      cache_.DropLookup(parsed->to_dir, parsed->to_name);
      cache_.StoreLookup(parsed->from_dir, parsed->from_name, kNegative);
    }
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleLink(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::LinkArgs>(args);
  if (!parsed) co_return Fault<nfs3::LinkRes>();
  auto body = co_await Upstream(nfs3::kLink, args.ToBytes(), parsed->dir,
                                "LINK", ctx.span);
  if (!body) co_return Fault<nfs3::LinkRes>();
  auto res = nfs3::Parse<nfs3::LinkRes>(*body);
  if (res) {
    Absorb(parsed->dir, res->dir_attr, /*own_write=*/true);
    Absorb(parsed->file, res->file_attr, /*own_write=*/true);
    if (res->status == Status::kOk) {
      cache_.StoreLookup(parsed->dir, parsed->name, parsed->file);
    }
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandleSetAttr(rpc::CallContext ctx, rpc::Body args) {
  auto parsed = nfs3::Parse<nfs3::SetAttrArgs>(args);
  if (!parsed) co_return Fault<nfs3::SetAttrRes>();
  const Fh fh = parsed->object;
  auto body = co_await Upstream(nfs3::kSetAttr, args.ToBytes(), fh, "SETATTR",
                                ctx.span);
  if (!body) co_return Fault<nfs3::SetAttrRes>();
  auto res = nfs3::Parse<nfs3::SetAttrRes>(*body);
  if (res && res->status == Status::kOk) {
    if (parsed->size.has_value()) cache_.DropFileData(fh);
    Absorb(fh, res->attr, /*own_write=*/true);
  }
  co_return std::move(*body);
}

sim::Task<Bytes> ProxyClient::HandlePassthrough(std::uint32_t proc,
                                                rpc::CallContext ctx,
                                                rpc::Body args) {
  auto body = co_await Upstream(proc, args.ToBytes(), std::nullopt,
                                nfs3::ProcName(proc), ctx.span);
  if (!body) co_return Fault<nfs3::GetAttrRes>();
  co_return std::move(*body);
}

// ---------------------------------------------------------------------------
// Callbacks (server -> client)
// ---------------------------------------------------------------------------

sim::Task<Bytes> ProxyClient::HandleCallback(rpc::CallContext ctx, rpc::Body args) {
  ++stats_.callbacks_received;
  auto parsed = nfs3::Parse<CallbackArgs>(args);
  if (!parsed) co_return Serialize(CallbackRes{});
  const Fh fh = parsed->file;
  if (policy_ != nullptr) policy_->OnRecall({fh.fsid, fh.ino});
  DropDelegation(fh);
  {
    // Sample the wanted block's dirty bit now: this is the moment the §4.3.2
    // write-back obligation is incurred, and what the checker holds us to.
    std::uint32_t flags = 0;
    if (parsed->type == CallbackType::kRecallWrite && parsed->has_wanted_offset) {
      flags |= trace::kDelegFlagHasWanted;
      const std::uint64_t aligned =
          parsed->wanted_offset - parsed->wanted_offset % cache_.block_size();
      const DiskCache::Block* wanted =
          cache_.FindBlock(fh, aligned / cache_.block_size());
      if (wanted != nullptr && wanted->dirty) flags |= trace::kDelegFlagWantedDirty;
    }
    node_.tracer().Deleg(
        trace::EventType::kDelegRecall, node_.address().host, fh.fsid, fh.ino,
        static_cast<std::uint32_t>(parsed->type == CallbackType::kRecallWrite
                                       ? DelegationType::kWrite
                                       : DelegationType::kRead),
        ctx.caller.host, flags,
        parsed->has_wanted_offset
            ? parsed->wanted_offset - parsed->wanted_offset % cache_.block_size()
            : 0);
  }
  // The recall reply promises the server our updates are visible: async
  // write-through WRITEs to this file must land first.
  co_await DrainAsyncWrites(fh);

  CallbackRes res;
  if (parsed->type == CallbackType::kRecallWrite) {
    // The contended block goes back first (§4.3.2).
    if (parsed->has_wanted_offset) {
      const std::uint64_t aligned =
          parsed->wanted_offset - parsed->wanted_offset % cache_.block_size();
      co_await FlushBlock(fh, aligned, ctx.span);
    }
    auto dirty = cache_.DirtyOffsets(fh);
    if (config_.dirty_threshold_blocks > 0 &&
        dirty.size() > config_.dirty_threshold_blocks) {
      // Too much dirty data to hold the callback: return the block list and
      // flush the remainder asynchronously.
      res.pending_offsets = dirty;
      const DiskCache::AttrEntry* entry = cache_.AnyAttr(fh);
      if (entry != nullptr) res.file_size = entry->attr.size;
      sim::Spawn(AsyncFlush(fh));
    } else {
      co_await FlushFile(fh, /*commit=*/true, ctx.span);
    }
  }
  cache_.InvalidateAttr(fh);
  node_.tracer().Deleg(
      trace::EventType::kDelegRelease, node_.address().host, fh.fsid, fh.ino,
      static_cast<std::uint32_t>(parsed->type == CallbackType::kRecallWrite
                                     ? DelegationType::kWrite
                                     : DelegationType::kRead),
      ctx.caller.host, 0, 0);
  co_return Serialize(res);
}

sim::Task<Bytes> ProxyClient::HandleRecovery(rpc::CallContext ctx, rpc::Body) {
  ++stats_.callbacks_received;
  // Whole-cache callback after a server restart: every cached attribute
  // must be revalidated; write-delegation state is reported back so the
  // server can rebuild its table.
  cache_.InvalidateAllAttrs();
  delegations_.clear();
  node_.tracer().Inv(trace::EventType::kInvForce, node_.address().host, 0, 0,
                     /*timestamp=*/0, /*count=*/0, ctx.caller.host);
  RecoveryRes res;
  res.dirty_files = cache_.FilesWithDirtyData();
  co_return Serialize(res);
}

// ---------------------------------------------------------------------------
// Background tasks
// ---------------------------------------------------------------------------

void ProxyClient::InitPollTargets() {
  poll_targets_.clear();
  std::vector<net::Address> addrs = config_.getinv_targets;
  if (addrs.empty()) {
    if (config_.shard_addrs.size() >= 2) {
      // Sharded session: every shard owns a slice of the handle space, so an
      // up-to-date client polls all of them (the fan-in the aggregation tier
      // exists to absorb).
      addrs = config_.shard_addrs;
    } else {
      addrs.push_back(upstream_.server());
    }
  }
  poll_targets_.reserve(addrs.size());
  for (const auto& addr : addrs) poll_targets_.push_back(PollTarget{addr, 0});
}

void ProxyClient::Start() {
  if (running_) return;
  running_ = true;
  if (config_.model == ConsistencyModel::kInvalidationPolling) {
    InitPollTargets();
    sim::Spawn(PollLoop());
  }
  if (config_.cache_mode == CacheMode::kWriteBack && config_.wb_flush_period > 0) {
    sim::Spawn(FlushLoop());
  }
  if (policy_ != nullptr) {
    // The node's tracer may have been attached after construction
    // (EnableTracing): pick it up at start, when it is final.
    policy_->SetTracer(node_.tracer(), node_.address().host);
    sim::Spawn(PolicyLoop());
  }
}

sim::Task<void> ProxyClient::PollLoop() {
  const std::uint64_t epoch = epoch_;
  // Bootstrap immediately (§4.2.2): the first GETINV carries a null
  // timestamp and establishes this client's invalidation buffer before any
  // cached state accumulates.
  co_await PollOnce();
  while (running_ && epoch == epoch_) {
    co_await sim::Sleep(sched_, poll_period_);
    if (!running_ || epoch != epoch_) break;
    co_await PollOnce();
  }
}

sim::Task<void> ProxyClient::PollOnce() {
  bool got_news = false;
  bool unreachable = false;
  // gvfs-lint: allow(iter-after-suspend): poll_targets_ is built once in Start() (InitPollTargets) and never resized while the poller runs
  for (auto& target : poll_targets_) {
    while (true) {
      GetInvArgs args;
      args.last_timestamp = target.timestamp;
      rpc::CallOptions opts;
      opts.label = "GETINV";
      auto reply = co_await node_.Call(target.addr, kGvfsProgram, kGetInv,
                                       Serialize(args), std::move(opts));
      if (!reply) {  // target unreachable; retry next period
        unreachable = true;
        break;
      }
      auto res = nfs3::Parse<GetInvRes>(*reply);
      if (!res) {
        unreachable = true;
        break;
      }
      ++stats_.polls;
      target.timestamp = res->new_timestamp;
      if (res->force_invalidate) {
        node_.tracer().Inv(trace::EventType::kInvForce, node_.address().host,
                           0, 0, res->new_timestamp, 0, target.addr.host);
        cache_.InvalidateAllAttrs();
        ++stats_.force_invalidations;
        got_news = true;
      } else {
        for (const auto& fh : res->handles) {
          node_.tracer().Inv(trace::EventType::kInvPoll, node_.address().host,
                             fh.fsid, fh.ino, res->new_timestamp,
                             static_cast<std::uint32_t>(res->handles.size()),
                             target.addr.host);
          cache_.InvalidateAttr(fh);
          ++stats_.invalidations_applied;
          if (policy_ != nullptr) policy_->OnInvalidation({fh.fsid, fh.ino});
        }
        got_news |= !res->handles.empty();
      }
      if (!res->poll_again) break;
    }
  }
  // A transport/parse failure without news skips the back-off adjustment
  // (mirrors the single-target behavior: the next period retries as-is).
  if (unreachable && !got_news) co_return;

  // Exponential back-off while the file system is quiet (§4.2.1).
  if (config_.poll_max_period > config_.poll_period) {
    if (got_news) {
      poll_period_ = config_.poll_period;
    } else {
      poll_period_ = std::min<Duration>(poll_period_ * 2, config_.poll_max_period);
    }
  }
}

sim::Task<void> ProxyClient::FlushLoop() {
  const std::uint64_t epoch = epoch_;
  while (running_ && epoch == epoch_) {
    co_await sim::Sleep(sched_, config_.wb_flush_period);
    if (!running_ || epoch != epoch_) break;
    co_await FlushAll();
  }
}

// ---------------------------------------------------------------------------
// Adaptive policy (src/policy)
// ---------------------------------------------------------------------------

sim::Task<void> ProxyClient::PolicyLoop() {
  const std::uint64_t epoch = epoch_;
  while (running_ && epoch == epoch_) {
    co_await sim::Sleep(sched_, config_.policy_period);
    if (!running_ || epoch != epoch_) break;
    const auto migrations = policy_->Tick(sched_.Now());
    for (const auto& m : migrations) {
      if (!running_ || epoch != epoch_) co_return;
      const Fh fh{m.file.fsid, m.file.ino};
      if (co_await MigrateMode(fh, m.from, m.to)) {
        policy_->Commit(m.file, m.to, sched_.Now());
      }
    }
  }
}

sim::Task<bool> ProxyClient::MigrateMode(Fh fh, policy::FileMode from,
                                         policy::FileMode to) {
  if (from != policy::FileMode::kPolling) {
    // Leaving a delegation: everything acknowledged under it must be durable
    // upstream before the old mode's guarantees are surrendered.
    co_await DrainAsyncWrites(fh);
    co_await FlushFile(fh, /*commit=*/true);
    DropDelegation(fh);
  }
  MigrateArgs margs;
  margs.file = fh;
  margs.from = static_cast<std::uint32_t>(from);
  margs.to = static_cast<std::uint32_t>(to);
  rpc::CallOptions opts;
  opts.label = "MIGRATE";
  // UpstreamFor routes the handshake to the shard that owns the file's
  // invalidation buffer — the only place the drain is meaningful.
  auto reply = co_await node_.Call(UpstreamFor(fh), kGvfsProgram, kMigrate,
                                   Serialize(margs), std::move(opts));
  if (!reply) co_return false;
  auto res = nfs3::Parse<MigrateRes>(*reply);
  if (!res || res->status != 0) co_return false;
  if (res->drained > 0) {
    // Buffered invalidations delivered in the reply: apply them now, before
    // the new mode starts trusting cached state.
    cache_.InvalidateAttr(fh);
    stats_.invalidations_applied += res->drained;
  }
  if (res->granted != 0) {
    StoreGrant(fh, static_cast<DelegationType>(res->granted));
  } else if (to != policy::FileMode::kPolling) {
    // The server could not grant the delegation right now (conflict);
    // the migration still switched the file's mode, and the next forwarded
    // request will pick up a grant once the conflict clears.
    DropDelegation(fh);
  }
  ++stats_.migrations;
  node_.tracer().Policy(trace::EventType::kPolicyMigrate, node_.address().host,
                        fh.fsid, fh.ino, static_cast<std::uint32_t>(from),
                        static_cast<std::uint32_t>(to), 0);
  co_return true;
}

sim::Task<bool> ProxyClient::FlushBlock(Fh fh, std::uint64_t offset,
                                        trace::SpanRef parent) {
  const std::uint64_t epoch = epoch_;
  const std::uint64_t index = offset / cache_.block_size();
  const DiskCache::Block* block = cache_.FindBlock(fh, index);
  if (block == nullptr || !block->dirty) co_return true;

  nfs3::WriteArgs wargs;
  wargs.file = fh;
  wargs.offset = offset;
  wargs.stable = nfs3::StableHow::kUnstable;
  wargs.data = block->data;
  auto body =
      co_await Upstream(nfs3::kWrite, Serialize(wargs), fh, "WRITE", parent);
  // Epoch check after the RPC, not just at loop tops: a crash while this
  // WRITE was in flight must not mark the surviving dirty block clean (the
  // recovery re-scan relies on the dirty flags).
  if (epoch != epoch_) co_return false;
  if (!body) co_return false;
  auto res = nfs3::Parse<nfs3::WriteRes>(*body);
  if (!res || res->status != Status::kOk) co_return false;
  cache_.MarkClean(fh, index);
  node_.tracer().Cache(trace::EventType::kCacheWriteBack, node_.address().host,
                       fh.fsid, fh.ino, offset, "WRITE");
  Absorb(fh, res->attr, /*own_write=*/true);
  ++stats_.blocks_flushed;
  co_return true;
}

sim::Mutex& ProxyClient::FlushLockFor(const Fh& fh) {
  return flush_locks_.try_emplace(fh, sched_).first->second;
}

sim::Task<void> ProxyClient::FlushFile(Fh fh, bool commit,
                                       trace::SpanRef parent) {
  const std::uint64_t epoch = epoch_;
  // Serialize whole-file flushes: a second flusher (periodic loop, recall,
  // shutdown) waits until the current window fully drains, which both
  // preserves per-block write-after-write order and makes a recall arriving
  // mid-flush hold its reply until in-flight WRITEs land.
  sim::Mutex& lock = FlushLockFor(fh);
  co_await lock.Lock();
  if (epoch != epoch_) {
    // gvfs-lint: allow(use-after-suspend): FlushLockFor returns a node-stable map entry; the lock is held across awaits by design to serialize flushes
    lock.Unlock();
    co_return;
  }

  bool flushed_any = false;
  const std::size_t window = std::max<std::size_t>(1, config_.wb_window);
  const auto offsets = cache_.DirtyOffsets(fh);
  if (window == 1 || offsets.size() <= 1) {
    for (std::uint64_t offset : offsets) {
      if (epoch != epoch_) break;
      flushed_any |= co_await FlushBlock(fh, offset, parent);
    }
  } else {
    // Sliding window: up to `window` WRITEs in flight; each completion frees
    // a slot for the next dirty block. One COMMIT covers the whole batch
    // once the window drains.
    sim::Semaphore slots(sched_, window);
    sim::WaitGroup in_flight(sched_);
    auto any = std::make_shared<bool>(false);
    for (std::uint64_t offset : offsets) {
      co_await slots.Acquire();
      if (epoch != epoch_) {
        slots.Release();
        break;  // stop issuing; the joined window below still drains
      }
      in_flight.Spawn([](ProxyClient* self, Fh file, std::uint64_t off,
                         trace::SpanRef span, sim::Semaphore* sem,
                         std::shared_ptr<bool> flushed) -> sim::Task<void> {
        const bool ok = co_await self->FlushBlock(file, off, span);
        *flushed = *flushed || ok;
        // gvfs-lint: allow(use-after-suspend): sem points at the stack semaphore in FlushFile, which joins every spawned frame via in_flight.Wait() before it leaves scope
        sem->Release();
      }(this, fh, offset, parent, &slots, any));
    }
    co_await in_flight.Wait();
    flushed_any = *any;
  }

  if (epoch == epoch_ && flushed_any && commit) {
    nfs3::CommitArgs cargs;
    cargs.file = fh;
    auto body =
        co_await Upstream(nfs3::kCommit, Serialize(cargs), fh, "COMMIT", parent);
    (void)body;
  }
  lock.Unlock();
}

sim::Task<void> ProxyClient::AsyncFlush(Fh fh) { co_await FlushFile(fh, true); }

sim::Task<void> ProxyClient::FlushAll() {
  const auto files = cache_.FilesWithDirtyData();
  if (config_.wb_window <= 1 || files.size() <= 1) {
    for (const Fh& fh : files) {
      co_await FlushFile(fh, /*commit=*/true);
    }
    co_return;
  }
  // Distinct files flush concurrently, each with its own WRITE window.
  sim::WaitGroup in_flight(sched_);
  for (const Fh& fh : files) {
    in_flight.Spawn(FlushFile(fh, /*commit=*/true));
  }
  co_await in_flight.Wait();
}

sim::Task<void> ProxyClient::Shutdown() {
  // Settle the async write-through pipeline, then flush dirty data. FlushAll
  // joins every window it opens, so by the time it returns there are no
  // in-flight flush tasks left to cancel; the epoch bump then stops any
  // straggler loop (poller, periodic flusher) at its next resumption.
  // gvfs-lint: allow(iter-after-suspend): async_writes_ entries are only ever inserted, never erased; std::map iterators survive insertion
  for (auto& [fh, aw] : async_writes_) {
    while (aw.in_flight.Outstanding() > 0) co_await aw.in_flight.Wait();
  }
  co_await FlushAll();
  running_ = false;
  ++epoch_;
}

// ---------------------------------------------------------------------------
// Crash / recovery (§4.3.4)
// ---------------------------------------------------------------------------

void ProxyClient::Crash() {
  node_.tracer().Node(trace::EventType::kNodeCrash, node_.address().host);
  node_.SetDown(true);
  running_ = false;
  ++epoch_;
  cache_.Crash();      // disk survives; validity metadata does not
  delegations_.clear();
  // Poll timestamps are lost: the next GETINV per target bootstraps with a
  // null timestamp.
  for (auto& target : poll_targets_) target.timestamp = 0;
  poll_period_ = config_.poll_period;
}

sim::Task<void> ProxyClient::RecoverFile(Fh fh) {
  auto reply = co_await upstream_.Call<nfs3::GetAttrRes>(nfs3::kGetAttr,
                                                         nfs3::GetAttrArgs{fh});
  // Look the entry up only after the await: a concurrent frame can drop the
  // file while this one is parked on the GETATTR, leaving a pre-await
  // pointer dangling. Nothing above needs the entry.
  DiskCache::FileEntry* entry = cache_.FindFile(fh);
  const bool conflicted =
      !reply || reply->status != Status::kOk ||
      (entry != nullptr && reply->attr.mtime != entry->mtime_seen);
  if (conflicted) {
    // The cached dirty data is considered corrupted; the application will
    // see an error when it tries to use it.
    cache_.DropFileData(fh);
    cache_.InvalidateAttr(fh);
    corrupted_.push_back(fh);
    co_return;
  }
  auto dirty = cache_.DirtyOffsets(fh);
  if (!dirty.empty()) co_await FlushBlock(fh, dirty.front());
}

sim::Task<void> ProxyClient::Recover() {
  node_.SetDown(false);
  node_.tracer().Node(trace::EventType::kNodeRecover, node_.address().host);
  cache_.InvalidateAllAttrs();
  node_.tracer().Inv(trace::EventType::kInvForce, node_.address().host, 0, 0,
                     /*timestamp=*/0, /*count=*/0, upstream_.server().host);
  const std::uint64_t epoch = epoch_;

  // For files with cached dirty data, write back a single block each: this
  // reacquires the write delegation if nobody modified the file during the
  // crash, and detects conflicts otherwise (§4.3.4). The probes are
  // independent per file, so they fan out through the write-back window.
  const auto dirty_files = cache_.FilesWithDirtyData();
  const std::size_t window = std::max<std::size_t>(1, config_.wb_window);
  if (window == 1 || dirty_files.size() <= 1) {
    for (const Fh& fh : dirty_files) {
      if (epoch != epoch_) co_return;  // crashed again mid-recovery
      co_await RecoverFile(fh);
    }
  } else {
    sim::Semaphore slots(sched_, window);
    sim::WaitGroup in_flight(sched_);
    for (const Fh& fh : dirty_files) {
      co_await slots.Acquire();
      if (epoch != epoch_) {
        slots.Release();
        break;
      }
      in_flight.Spawn([](ProxyClient* self, Fh file,
                         sim::Semaphore* sem) -> sim::Task<void> {
        co_await self->RecoverFile(file);
        // gvfs-lint: allow(use-after-suspend): sem points at the stack semaphore in Recover, which joins every spawned frame via in_flight.Wait() before it leaves scope
        sem->Release();
      }(this, fh, &slots));
    }
    co_await in_flight.Wait();
  }
  if (epoch == epoch_) Start();
}

}  // namespace gvfs::proxy
