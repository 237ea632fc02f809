#include "fleet/inv_aggregator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace gvfs::fleet {

using nfs3::Fh;
using nfs3::Serialize;

InvAggregator::InvAggregator(sim::Scheduler& sched, rpc::RpcNode& node,
                             InvAggregatorConfig config,
                             const proxy::FaultHooks* faults)
    : sched_(sched),
      node_(node),
      config_(std::move(config)),
      faults_(faults != nullptr ? *faults : proxy::FaultHooks{}) {
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
      // shard restart, or our buffer wrapped server-side). Anything it may
      // have dropped must reach every downstream client, so the escalation
      // is a whole-cache invalidation for all of them.
      ++stats_.upstream_forces;
      EscalateForce(res->new_timestamp);
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
  // The aggregator re-stamps handles on its own clock: downstream timestamps
  // must be dense and monotone per THIS node, independent of how many
  // upstream shards' clocks interleave.
  ++agg_clock_;
  std::uint32_t fanned = 0;
  std::size_t idx = 0;
  const std::size_t last = clients_.size();
  for (auto& [client, state] : clients_) {
    ++idx;
    if (faults_.drop_fanout && idx == last) continue;  // seeded loss
    if (state.overflowed) continue;  // already due a whole-cache invalidation
    if (Fanout(client, state, fh)) ++fanned;
    if (faults_.duplicate_fanout && idx == 1 && !state.overflowed) {
      state.pending.erase(fh);  // defeat coalescing: seeded duplicate
      if (Fanout(client, state, fh)) ++fanned;
    }
  }
  // One ingest marker AFTER the fan-outs: the checker replays in order and
  // verifies every registered client was covered (fanned out, or due a
  // whole-cache invalidation) by the time the handle is absorbed.
  node_.tracer().Inv(trace::EventType::kAggIngest, node_.address().host,
                     fh.fsid, fh.ino, agg_clock_, fanned, shard_host);
}

bool InvAggregator::Fanout(const net::Address& client, Downstream& state,
                           const Fh& fh) {
  if (!state.pending.insert(fh).second) return false;  // coalesced
  state.buffer.push_back(Entry{agg_clock_, fh});
  ++inv_entries_;
  ++stats_.handles_fanned_out;
  stats_.inv_entries_peak =
      std::max<std::uint64_t>(stats_.inv_entries_peak, inv_entries_);
  const auto& tr = node_.tracer();
  const HostId host = node_.address().host;
  tr.Inv(trace::EventType::kAggFanout, host, fh.fsid, fh.ino, agg_clock_,
         static_cast<std::uint32_t>(state.buffer.size()), client.host);
  if (state.buffer.size() > config_.inv_buffer_capacity) {
    // Overflow breaks this client's incremental stream. Unlike the server
    // (which keeps a rolling window), the aggregator drops the whole buffer
    // at once: the client is due a whole-cache invalidation either way, and
    // holding doomed entries would only inflate tier memory under fan-out.
    tr.Inv(trace::EventType::kInvWrap, host, fh.fsid, fh.ino, agg_clock_,
           static_cast<std::uint32_t>(state.buffer.size()), client.host);
    ++stats_.inv_wraps;
    inv_entries_ -= state.buffer.size();
    state.buffer.clear();
    state.pending.clear();
    state.overflowed = true;
  }
  return true;
}

void InvAggregator::EscalateForce(std::uint64_t upstream_timestamp) {
  const auto& tr = node_.tracer();
  const HostId host = node_.address().host;
  for (auto& [client, state] : clients_) {
    if (state.overflowed) continue;  // stream already broken
    tr.Inv(trace::EventType::kInvWrap, host, 0, 0, upstream_timestamp,
           static_cast<std::uint32_t>(state.buffer.size()), client.host);
    inv_entries_ -= state.buffer.size();
    state.buffer.clear();
    state.pending.clear();
    state.overflowed = true;
  }
}

// ---------------------------------------------------------------------------
// Downstream: GETINV service, mirroring ProxyServer::HandleGetInv
// ---------------------------------------------------------------------------

sim::Task<Bytes> InvAggregator::HandleGetInv(rpc::CallContext ctx,
                                             rpc::Body args) {
  ++stats_.getinv_served;
  const auto& tr = node_.tracer();
  const HostId host = node_.address().host;

  proxy::GetInvRes res;
  auto parsed = nfs3::Parse<proxy::GetInvArgs>(args);
  if (!parsed) {
    res.force_invalidate = true;
    res.new_timestamp = agg_clock_;
    co_return Serialize(res);
  }

  auto it = clients_.find(ctx.caller);
  if (it == clients_.end()) {
    // Case 1: first GETINV from this client — register it; from here on
    // every ingested handle must be fanned out to it (the kAggTier
    // invariant holds the tier to exactly that).
    auto& state = clients_[ctx.caller];
    state.last_acked = agg_clock_;
    res.new_timestamp = agg_clock_;
    res.force_invalidate = true;
    ++stats_.force_invalidations;
    tr.Inv(trace::EventType::kInvForce, host, 0, 0, agg_clock_, 0,
           ctx.caller.host);
    co_return Serialize(res);
  }

  Downstream& state = it->second;
  const std::uint64_t ts = parsed->last_timestamp;
  const bool stale_ts = ts == 0 || ts < state.last_acked || ts > agg_clock_;
  if (stale_ts || state.overflowed) {
    // Case 2: incremental delivery impossible (client lost its timestamp,
    // its buffer here overflowed, or an upstream force was escalated).
    inv_entries_ -= state.buffer.size();
    state.buffer.clear();
    state.pending.clear();
    state.overflowed = false;
    state.last_acked = agg_clock_;
    res.new_timestamp = agg_clock_;
    res.force_invalidate = true;
    ++stats_.force_invalidations;
    tr.Inv(trace::EventType::kInvForce, host, 0, 0, agg_clock_, 0,
           ctx.caller.host);
    co_return Serialize(res);
  }

  // Case 3: drain buffered invalidations, batched.
  const std::size_t batch =
      std::min<std::size_t>(state.buffer.size(), config_.getinv_batch);
  res.handles.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    Entry entry = state.buffer.front();
    state.buffer.pop_front();
    state.pending.erase(entry.fh);
    res.handles.push_back(entry.fh);
    state.last_acked = entry.timestamp;
    tr.Inv(trace::EventType::kAggDeliver, host, entry.fh.fsid, entry.fh.ino,
           entry.timestamp, static_cast<std::uint32_t>(batch),
           ctx.caller.host);
  }
  inv_entries_ -= batch;
  stats_.handles_delivered += batch;
  if (state.buffer.empty()) {
    state.last_acked = agg_clock_;
  } else {
    res.poll_again = true;
  }
  res.new_timestamp = state.last_acked;
  tr.Inv(trace::EventType::kAggServe, host, 0, 0, res.new_timestamp,
         static_cast<std::uint32_t>(res.handles.size()), ctx.caller.host);
  co_return Serialize(res);
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void InvAggregator::AttachMetrics(metrics::Registry& registry,
                                  const std::string& prefix) {
  registry.AddProbe(prefix + "inv_buffer_entries", [this] {
    return static_cast<double>(inv_entries_);
  });
  registry.AddProbe(prefix + "downstream_clients", [this] {
    return static_cast<double>(clients_.size());
  });
  metrics::RegisterCounters(registry, prefix, stats_);
}

}  // namespace gvfs::fleet
