#include "fleet/inv_aggregator.h"

#include <utility>

namespace gvfs::fleet {

using nfs3::Fh;
using nfs3::Serialize;

InvAggregator::InvAggregator(sim::Scheduler& sched, rpc::RpcNode& node,
                             InvAggregatorConfig config,
                             const proxy::FaultHooks* faults)
    : sched_(sched),
      node_(node),
      config_(std::move(config)),
      inv_log_(InvLog::Role::kTier, node.tracer(), node.address().host,
               config_.inv_buffer_capacity, config_.getinv_batch, faults) {
  shard_timestamps_.assign(config_.shards.size(), 0);
  node_.RegisterHandler(proxy::kGvfsProgram, proxy::kGetInv,
                        [this](rpc::CallContext ctx, rpc::Body args) {
                          return HandleGetInv(ctx, std::move(args));
                        });
}

void InvAggregator::Start() {
  if (running_) return;
  running_ = true;
  sim::Spawn(PollLoop());
}

void InvAggregator::Stop() {
  running_ = false;
  ++epoch_;
}

// ---------------------------------------------------------------------------
// Upstream: one batched GETINV per shard per period
// ---------------------------------------------------------------------------

sim::Task<void> InvAggregator::PollLoop() {
  const std::uint64_t epoch = epoch_;
  // Bootstrap immediately: the first GETINV per shard carries a null
  // timestamp and registers this aggregator as the shard's (single) polling
  // client before downstream state accumulates.
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    co_await PollShardOnce(i);
  }
  while (running_ && epoch == epoch_) {
    co_await sim::Sleep(sched_, config_.poll_period);
    if (!running_ || epoch != epoch_) break;
    for (std::size_t i = 0; i < config_.shards.size(); ++i) {
      co_await PollShardOnce(i);
      if (!running_ || epoch != epoch_) break;
    }
  }
}

sim::Task<void> InvAggregator::PollShardOnce(std::size_t shard_index) {
  while (true) {
    proxy::GetInvArgs args;
    args.last_timestamp = shard_timestamps_[shard_index];
    rpc::CallOptions opts;
    opts.label = "GETINV";
    auto reply =
        co_await node_.Call(config_.shards[shard_index], proxy::kGvfsProgram,
                            proxy::kGetInv, Serialize(args), std::move(opts));
    if (!reply) co_return;  // shard unreachable; retry next period
    auto res = nfs3::Parse<proxy::GetInvRes>(*reply);
    if (!res) co_return;
    ++stats_.upstream_polls;
    shard_timestamps_[shard_index] = res->new_timestamp;
    if (res->force_invalidate) {
      // The shard could not bring us up to date incrementally (bootstrap,
      // shard restart, or our stream broke server-side). Anything it may
      // have dropped must reach every downstream client, so the escalation
      // is a whole-cache invalidation for all of them.
      ++stats_.upstream_forces;
      inv_log_.BreakAll(res->new_timestamp);
    } else {
      stats_.handles_ingested += res->handles.size();
      for (const auto& fh : res->handles) {
        Ingest(fh, config_.shards[shard_index].host);
      }
    }
    if (!res->poll_again) co_return;
  }
}

void InvAggregator::Ingest(const Fh& fh, HostId shard_host) {
  const std::uint32_t fanned = inv_log_.Append(fh);
  stats_.handles_fanned_out += fanned;
  stats_.inv_wraps = inv_log_.wraps();
  stats_.inv_entries_peak = inv_log_.peak_entries();
  // One ingest marker AFTER the fan-outs: the checker replays in order and
  // verifies every registered client was covered (fanned out, or due a
  // whole-cache invalidation) by the time the handle is absorbed.
  node_.tracer().Inv(trace::EventType::kAggIngest, node_.address().host,
                     fh.fsid, fh.ino, inv_log_.clock(), fanned, shard_host);
}

// ---------------------------------------------------------------------------
// Downstream: GETINV service
// ---------------------------------------------------------------------------

sim::Task<Bytes> InvAggregator::HandleGetInv(rpc::CallContext ctx,
                                             rpc::Body args) {
  ++stats_.getinv_served;
  // A client's first GETINV registers it: from then on every ingested handle
  // must reach it (the kAggTier invariant holds the tier to that). A
  // malformed request reads as the null timestamp: whole-cache invalidation.
  auto parsed = nfs3::Parse<proxy::GetInvArgs>(args);
  const proxy::GetInvRes res =
      inv_log_.Serve(ctx.caller, parsed ? parsed->last_timestamp : 0);
  if (res.force_invalidate) ++stats_.force_invalidations;
  stats_.handles_delivered += res.handles.size();
  co_return Serialize(res);
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void InvAggregator::AttachMetrics(metrics::Registry& registry,
                                  const std::string& prefix) {
  registry.AddProbe(prefix + "inv_buffer_entries", [this] {
    return static_cast<double>(inv_log_.entries());
  });
  registry.AddProbe(prefix + "downstream_clients", [this] {
    return static_cast<double>(inv_log_.clients());
  });
  metrics::RegisterCounters(registry, prefix, stats_);
}

JsonObject InvAggregator::SnapshotState() const {
  JsonObject snap;
  snap.Add("role", "inv_aggregator");
  snap.Add("inv_log", inv_log_.Snapshot());
  return snap;
}

}  // namespace gvfs::fleet
