// Fleet-scale GETINV sweep (fig_scale): client count 6 -> 4096 against the
// four fleet topologies — direct polling vs. the aggregation tier, 1 vs. 4
// proxy-server shards — measuring what the fleet subsystem exists to fix:
//
//   * server-side GETINV load (polls actually absorbed by the shards);
//   * per-shard invalidation-log occupancy (peak entries the server must
//     store while slow pollers lag — each mutation once, however many
//     clients owe it);
//
// plus per-shard gauges (inv-buffer occupancy, callback count, recall queue
// depth) read live from the metrics observatory. Every point runs under the
// TraceChecker — including the kAggTier invariant — and fails the benchmark
// on any violation or on a truncated trace, so the scaling numbers can never
// come from a run that silently lost invalidations.
//
// All reported fields are virtual-time deterministic: CI gates BENCH_scale
// results exactly (tools/bench/compare.py --scale-*), the same way it gates
// the flush benchmark. `--smoke` runs the small-N prefix of the very same
// sweep (identical per-point config), so smoke rows are a subset of the
// committed baseline.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/checker.h"
#include "workloads/testbed.h"

namespace gvfs::bench {
namespace {

using workloads::FleetConfig;
using workloads::FleetSession;
using workloads::Testbed;

constexpr int kFiles = 8;
constexpr int kRounds = 2;
constexpr Duration kPollPeriod = Seconds(15);
constexpr Duration kRoundGap = Seconds(20);
// Two tier hops (client->aggregator and aggregator->shard poll phases) plus
// slack: every buffered invalidation drains before we sample the counters.
constexpr Duration kDrain = Seconds(50);

struct Topology {
  std::uint32_t shards;
  bool aggregate;
};

constexpr Topology kTopologies[] = {
    {1, false}, {4, false}, {1, true}, {4, true}};

const char* ModeName(bool aggregate) { return aggregate ? "agg" : "direct"; }

struct Point {
  int clients = 0;
  std::uint32_t shards = 1;
  bool aggregate = false;

  double virtual_s = 0;           // sim-clock duration of the point
  std::uint64_t getinv_total = 0;  // GETINV polls absorbed by the shards
  std::uint64_t getinv_max_shard = 0;
  std::uint64_t inv_peak_total = 0;  // summed shard buffer high-water marks
  std::uint64_t inv_peak_max_shard = 0;
  std::uint64_t notifyinv = 0;  // cross-shard forwards
  std::uint64_t server_forces = 0;
  std::uint64_t applied = 0;  // invalidations applied across all clients
  std::uint64_t client_forces = 0;

  // Aggregation tier (zero in direct mode).
  std::uint64_t agg_upstream_polls = 0;
  std::uint64_t agg_getinv_served = 0;
  std::uint64_t agg_fanned_out = 0;
  std::uint64_t agg_delivered = 0;
  std::uint64_t agg_inv_peak = 0;

  // Staleness-probe read-out for the SLO gate (printed under --check, kept
  // out of the JSON so BENCH_scale.json stays byte-identical).
  std::uint64_t staleness_count = 0;
  std::uint64_t staleness_p99_us = 0;

  /// Per-shard observatory gauges, sampled at collection time.
  struct ShardGauges {
    double inv_buffer_entries = 0;
    double inv_entries_peak = 0;
    double inv_buffer_clients = 0;
    double recall_queue_depth = 0;
    double callbacks_sent = 0;
  };
  std::vector<ShardGauges> gauges;
};

sim::Task<void> Workload(Testbed& bed, FleetSession& session) {
  kclient::OpenFlags flags{.read = true, .write = true, .create = true};
  for (int round = 0; round < kRounds; ++round) {
    for (int f = 0; f < kFiles; ++f) {
      auto fd = co_await session.mount(0).Open("/f" + std::to_string(f), flags);
      Bytes payload(1024, static_cast<std::uint8_t>(round * kFiles + f + 1));
      (void)co_await session.mount(0).Write(*fd, 0, payload);
      (void)co_await session.mount(0).Close(*fd);
    }
    // One RENAME per round: the directory mutation and the moved file's
    // handle usually land on different shards, exercising the NOTIFYINV
    // cross-shard forwarding path under the sweep.
    (void)co_await session.mount(0).Rename("/f" + std::to_string(round),
                                           "/r" + std::to_string(round));
    co_await sim::Sleep(bed.sched(), kRoundGap);
  }
  co_await sim::Sleep(bed.sched(), kDrain);
}

double ProbeValue(const metrics::Registry& registry, const std::string& name) {
  auto it = registry.probes().find(name);
  return it == registry.probes().end() ? 0.0 : it->second();
}

/// Runs one sweep point. Returns false (and prints why) when the trace was
/// truncated or the checker found a violation.
bool RunOne(int clients, const Topology& topo, Point* out) {
  Testbed bed;
  std::vector<int> members;
  members.reserve(clients);
  for (int i = 0; i < clients; ++i) members.push_back(bed.AddWanClient());

  trace::TraceBuffer& trace = bed.EnableTracing(1 << 21);
  metrics::Registry& registry = bed.EnableMetrics(Seconds(10));

  FleetConfig config;
  config.shards = topo.shards;
  config.aggregate = topo.aggregate;
  config.session.model = proxy::ConsistencyModel::kInvalidationPolling;
  config.session.poll_period = kPollPeriod;
  config.session.poll_max_period = kPollPeriod;  // fixed cadence: the sweep
                                                 // measures steady-state load
  config.session.inv_buffer_capacity = 1 << 20;  // no overflow: incremental
                                                 // delivery end to end
  config.aggregator.poll_period = kPollPeriod;
  config.aggregator.inv_buffer_capacity = 1 << 20;

  FleetSession& session =
      bed.CreateFleetSession(config, members, /*active_mounts=*/1);

  const SimTime t0 = bed.sched().Now();
  Drive(bed.sched(), Workload(bed, session));

  Point point;
  point.clients = clients;
  point.shards = topo.shards;
  point.aggregate = topo.aggregate;
  point.virtual_s = ToSeconds(bed.sched().Now() - t0);
  for (std::size_t k = 0; k < session.shards.size(); ++k) {
    const proxy::ProxyServerStats& s = session.shard(k).stats();
    point.getinv_total += s.getinv_served;
    point.getinv_max_shard = std::max(point.getinv_max_shard, s.getinv_served);
    point.inv_peak_total += s.inv_entries_peak;
    point.inv_peak_max_shard =
        std::max(point.inv_peak_max_shard, s.inv_entries_peak);
    point.notifyinv += s.notifyinv_sent;
    point.server_forces += s.force_invalidations;

    const std::string prefix = "f0.s" + std::to_string(k) + ".";
    Point::ShardGauges gauges;
    gauges.inv_buffer_entries = ProbeValue(registry, prefix + "inv_buffer_entries");
    gauges.inv_entries_peak = ProbeValue(registry, prefix + "inv_entries_peak");
    gauges.inv_buffer_clients = ProbeValue(registry, prefix + "inv_buffer_clients");
    gauges.recall_queue_depth = ProbeValue(registry, prefix + "recall_queue_depth");
    gauges.callbacks_sent = ProbeValue(registry, prefix + "callbacks_sent");
    point.gauges.push_back(gauges);
  }
  for (auto* proxy : session.proxies) {
    point.applied += proxy->stats().invalidations_applied;
    point.client_forces += proxy->stats().force_invalidations;
  }
  if (session.aggregator != nullptr) {
    const fleet::InvAggregatorStats& a = session.aggregator->stats();
    point.agg_upstream_polls = a.upstream_polls;
    point.agg_getinv_served = a.getinv_served;
    point.agg_fanned_out = a.handles_fanned_out;
    point.agg_delivered = a.handles_delivered;
    point.agg_inv_peak = a.inv_entries_peak;
  }
  auto hist_it = registry.histograms().find("f0.staleness_us");
  if (hist_it != registry.histograms().end()) {
    point.staleness_count = hist_it->second.hist().count();
    point.staleness_p99_us = hist_it->second.hist().Percentile(99);
  }
  Drive(bed.sched(), session.Shutdown());

  if (trace.dropped() != 0) {
    std::fprintf(stderr,
                 "FAIL: trace ring overflowed (%llu dropped) at clients=%d "
                 "shards=%u mode=%s — results unverifiable\n",
                 static_cast<unsigned long long>(trace.dropped()), clients,
                 topo.shards, ModeName(topo.aggregate));
    return false;
  }
  trace::TraceChecker checker(proxy::NfsTraceCheckerConfig());
  const auto violations = checker.Check(trace);
  if (!violations.empty()) {
    std::fprintf(stderr, "FAIL: trace checker at clients=%d shards=%u mode=%s\n%s",
                 clients, topo.shards, ModeName(topo.aggregate),
                 trace::FormatViolations(violations).c_str());
    return false;
  }
  *out = point;
  return true;
}

JsonObject PointJson(const Point& p) {
  JsonObject row;
  row.Add("clients", static_cast<std::uint64_t>(p.clients));
  row.Add("shards", static_cast<std::uint64_t>(p.shards));
  row.Add("mode", ModeName(p.aggregate));
  row.Add("virtual_s", p.virtual_s);
  row.Add("getinv_total", p.getinv_total);
  row.Add("getinv_max_shard", p.getinv_max_shard);
  row.Add("inv_peak_total", p.inv_peak_total);
  row.Add("inv_peak_max_shard", p.inv_peak_max_shard);
  row.Add("notifyinv", p.notifyinv);
  row.Add("server_forces", p.server_forces);
  row.Add("applied", p.applied);
  row.Add("client_forces", p.client_forces);
  row.Add("agg_upstream_polls", p.agg_upstream_polls);
  row.Add("agg_getinv_served", p.agg_getinv_served);
  row.Add("agg_fanned_out", p.agg_fanned_out);
  row.Add("agg_delivered", p.agg_delivered);
  row.Add("agg_inv_peak", p.agg_inv_peak);
  std::vector<JsonObject> gauges;
  for (std::size_t k = 0; k < p.gauges.size(); ++k) {
    const Point::ShardGauges& g = p.gauges[k];
    JsonObject shard;
    shard.Add("shard", static_cast<std::uint64_t>(k));
    shard.Add("inv_buffer_entries", g.inv_buffer_entries);
    shard.Add("inv_entries_peak", g.inv_entries_peak);
    shard.Add("inv_buffer_clients", g.inv_buffer_clients);
    shard.Add("recall_queue_depth", g.recall_queue_depth);
    shard.Add("callbacks_sent", g.callbacks_sent);
    gauges.push_back(std::move(shard));
  }
  row.Add("shard_gauges", gauges);
  return row;
}

const Point* Find(const std::vector<Point>& points, int clients,
                  std::uint32_t shards, bool aggregate) {
  for (const Point& p : points) {
    if (p.clients == clients && p.shards == shards && p.aggregate == aggregate) {
      return &p;
    }
  }
  return nullptr;
}

/// The scaling claims the fleet subsystem is sold on, asserted at the
/// largest client count of this run (`top`) against the smallest (`bottom`).
bool CheckClaims(const std::vector<Point>& points, int bottom, int top) {
  const Point* d1 = Find(points, top, 1, false);
  const Point* d4 = Find(points, top, 4, false);
  const Point* a1 = Find(points, top, 1, true);
  const Point* a4 = Find(points, top, 4, true);
  if (d1 == nullptr || d4 == nullptr || a1 == nullptr || a4 == nullptr) {
    std::fprintf(stderr, "CHECK FAIL: missing sweep points at N=%d\n", top);
    return false;
  }
  bool ok = true;
  // The tier absorbs the poll fan-in: the shards serve only the aggregator.
  if (a1->getinv_total * 4 >= d1->getinv_total) {
    std::fprintf(stderr,
                 "CHECK FAIL: aggregation did not cut server GETINV load "
                 "(agg %llu vs direct %llu)\n",
                 static_cast<unsigned long long>(a1->getinv_total),
                 static_cast<unsigned long long>(d1->getinv_total));
    ok = false;
  }
  // Sharding spreads buffered invalidations across owners.
  if (d4->inv_peak_max_shard >= d1->inv_peak_max_shard) {
    std::fprintf(stderr,
                 "CHECK FAIL: sharding did not reduce per-shard buffer peak "
                 "(4-shard %llu vs 1-shard %llu)\n",
                 static_cast<unsigned long long>(d4->inv_peak_max_shard),
                 static_cast<unsigned long long>(d1->inv_peak_max_shard));
    ok = false;
  }
  // The invalidation log stores each mutation once, not once per client:
  // no stored-entry peak grows with the client count, per shard in direct
  // mode and in the tier.
  auto no_growth = [&](const Topology& topo, const std::string& where,
                       double small, double large) {
    if (large <= small) return;
    std::fprintf(stderr,
                 "CHECK FAIL: %s stored-entry peak grew with clients "
                 "(shards=%u mode=%s: %.0f at N=%d vs %.0f at N=%d)\n",
                 where.c_str(), topo.shards, ModeName(topo.aggregate), large,
                 top, small, bottom);
    ok = false;
  };
  for (const Topology& topo : kTopologies) {
    const Point* lo = Find(points, bottom, topo.shards, topo.aggregate);
    const Point* hi = Find(points, top, topo.shards, topo.aggregate);
    if (lo == nullptr || hi == nullptr) {
      std::fprintf(stderr, "CHECK FAIL: missing sweep points at N=%d\n",
                   bottom);
      return false;
    }
    if (topo.aggregate) {
      no_growth(topo, "tier", static_cast<double>(lo->agg_inv_peak),
                static_cast<double>(hi->agg_inv_peak));
      continue;
    }
    for (std::size_t k = 0; k < hi->gauges.size(); ++k) {
      no_growth(topo, "shard " + std::to_string(k),
                lo->gauges[k].inv_entries_peak, hi->gauges[k].inv_entries_peak);
    }
  }
  // No invalidations went missing: with the tier in place, clients still
  // apply (or are force-invalidated for) every mutation round.
  if (a4->applied + a4->client_forces == 0) {
    std::fprintf(stderr, "CHECK FAIL: no invalidations reached clients "
                         "through the tier\n");
    ok = false;
  }
  return ok;
}

/// Passive staleness-SLO gate (runs under --check): any point whose probe
/// recorded samples must hold the poll_period + 2*RTT budget. The sweep has
/// a single writer and active mount, so most points legitimately record no
/// cross-client cached reads — those pass vacuously, but the sample count is
/// printed so a silently-dead probe is still visible in the logs.
bool CheckStaleness(const std::vector<Point>& points) {
  const Duration budget =
      workloads::StalenessBound(workloads::TestbedConfig{}, kPollPeriod);
  const auto budget_us = static_cast<std::uint64_t>(ToSeconds(budget) * 1e6);
  std::uint64_t sampled_points = 0;
  bool ok = true;
  for (const Point& p : points) {
    if (p.staleness_count == 0) continue;
    ++sampled_points;
    if (p.staleness_p99_us > budget_us) {
      std::fprintf(stderr,
                   "CHECK FAIL: p99 staleness %llu us exceeds the "
                   "poll_period + 2*RTT budget (%llu us) at clients=%d "
                   "shards=%u mode=%s\n",
                   static_cast<unsigned long long>(p.staleness_p99_us),
                   static_cast<unsigned long long>(budget_us), p.clients,
                   p.shards, ModeName(p.aggregate));
      ok = false;
    }
  }
  std::printf("staleness SLO: %llu/%zu points sampled the probe, budget "
              "%llu us\n",
              static_cast<unsigned long long>(sampled_points), points.size(),
              static_cast<unsigned long long>(budget_us));
  return ok;
}

int Main(bool smoke, bool check, const std::optional<std::string>& json_out) {
  const std::vector<int> sweep =
      smoke ? std::vector<int>{6, 64}
            : std::vector<int>{6, 64, 256, 1024, 4096};

  PrintHeader("Fleet scaling: GETINV load and buffer occupancy vs client "
              "count (8 files x 2 write rounds, 15 s poll period)");
  std::printf("%-8s %-7s %-7s %12s %14s %14s %10s %10s\n", "clients", "shards",
              "mode", "getinv", "inv peak/shd", "agg fanout", "notifyinv",
              "applied");
  PrintRule();

  std::vector<Point> points;
  for (int clients : sweep) {
    for (const Topology& topo : kTopologies) {
      Point point;
      if (!RunOne(clients, topo, &point)) return 1;
      points.push_back(point);
      std::printf("%-8d %-7u %-7s %12llu %14llu %14llu %10llu %10llu\n",
                  point.clients, point.shards, ModeName(point.aggregate),
                  static_cast<unsigned long long>(point.getinv_total),
                  static_cast<unsigned long long>(point.inv_peak_max_shard),
                  static_cast<unsigned long long>(point.agg_fanned_out),
                  static_cast<unsigned long long>(point.notifyinv),
                  static_cast<unsigned long long>(point.applied));
    }
  }

  if (json_out.has_value()) {
    JsonObject doc;
    doc.Add("benchmark", "fig_scale");
    doc.Add("smoke", smoke);
    doc.Add("files", static_cast<std::uint64_t>(kFiles));
    doc.Add("rounds", static_cast<std::uint64_t>(kRounds));
    doc.Add("poll_period_s", ToSeconds(kPollPeriod));
    std::vector<JsonObject> rows;
    for (const Point& p : points) rows.push_back(PointJson(p));
    doc.Add("points", rows);
    if (WriteTextFile(*json_out, doc.Dump() + "\n")) {
      std::printf("wrote %s\n", json_out->c_str());
    }
  }

  if (check) {
    bool ok = CheckClaims(points, sweep.front(), sweep.back());
    ok = CheckStaleness(points) && ok;
    if (!ok) return 1;
  }
  if (check) {
    std::printf("CHECK OK: aggregation and sharding reduce server-side "
                "GETINV load and per-shard buffer peaks at N=%d, and no "
                "stored-entry peak grows from N=%d\n",
                sweep.back(), sweep.front());
  }
  return 0;
}

}  // namespace
}  // namespace gvfs::bench

int main(int argc, char** argv) {
  return gvfs::bench::Main(gvfs::bench::HasFlag(argc, argv, "--smoke"),
                           gvfs::bench::HasFlag(argc, argv, "--check"),
                           gvfs::bench::FlagValue(argc, argv, "--json-out"));
}
