#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/json_value.h"
#include "common/json_writer.h"
#include "gvfs/proto.h"
#include "nfs3/proto.h"
#include "policy/policy.h"
#include "sim/sync.h"
#include "trace/checker.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kStampMagic = 0x6776667362656e63ULL;  // "gvfsbenc"
constexpr double kMiB = 1024.0 * 1024.0;

/// Shortest round-trip form: JsonObject::Add's %.6g would round host times.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSim:
      return "sim";
    case Kind::kHost:
      return "host";
    case Kind::kTrace:
      return "trace";
  }
  return "?";
}

void Put64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
std::uint64_t Get64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

struct Stamp {
  std::uint64_t file = 0;
  std::uint32_t block = 0;
  std::uint32_t version = 0;
  bool valid = false;
};

Stamp ParseStamp(const std::uint8_t* data, std::size_t len) {
  Stamp s;
  if (len < kStampBytes || Get64(data) != kStampMagic) return s;
  s.file = Get64(data + 8);
  const std::uint64_t word = Get64(data + 16);
  s.block = static_cast<std::uint32_t>(word >> 32);
  s.version = static_cast<std::uint32_t>(word);
  s.valid = true;
  return s;
}

sim::Task<void> MarkDone(sim::Task<void> task, bool* done) {
  co_await std::move(task);
  *done = true;
}

sim::Task<void> SleepFor(sim::Scheduler* sched, Duration d) {
  co_await sim::Sleep(*sched, d);
}

std::uint64_t NodeKey(HostId host, std::uint32_t port) {
  return (static_cast<std::uint64_t>(host) << 32) | port;
}

/// Linear interpolation between the closest ranks of sorted values.
double Percentile(const std::vector<Duration>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double h = (static_cast<double>(sorted.size()) - 1) * pct / 100.0;
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return static_cast<double>(sorted[lo]) +
         (h - static_cast<double>(lo)) *
             static_cast<double>(sorted[hi] - sorted[lo]);
}

double Ms(double ns) { return ns / 1e6; }

}  // namespace

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Add(const std::string& name, double value, const std::string& unit,
                 Kind kind) {
  entries_.push_back(Entry{name, value, unit, kind});
}

void Report::Error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  errors_.push_back(message);
}

std::string Report::Json(const Options& opt, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string errors = "[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += gvfs::JsonQuote(errors_[i]);
  }
  errors += "]";
  gvfs::JsonObject metrics;
  for (const Entry& e : entries_) {
    metrics.Add(e.name, gvfs::JsonObject()
                            .AddRaw("value", Number(e.value))
                            .Add("unit", e.unit)
                            .Add("kind", KindName(e.kind)));
  }
  return gvfs::JsonObject()
      .Add("workload", opt.workload)
      .Add("seed", opt.seed)
      .Add("traced", opt.traced)
      .Add("ok", ok())
      .AddRaw("errors", errors)
      .Add("attempted", attempted)
      .Add("failed", failed)
      .Add("metrics", metrics)
      .Dump();
}

// ---------------------------------------------------------------------------
// Stamps and op names
// ---------------------------------------------------------------------------

Bytes StampedBlock(std::uint64_t file, std::uint32_t block, std::uint32_t version,
                   std::size_t len) {
  Bytes out(len, static_cast<std::uint8_t>('a' + (file + version) % 26));
  if (len >= kStampBytes) {
    Put64(out.data(), kStampMagic);
    Put64(out.data() + 8, file);
    Put64(out.data() + 16, (static_cast<std::uint64_t>(block) << 32) | version);
  }
  return out;
}

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kOpen:
      return "open";
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
    case OpType::kClose:
      return "close";
    case OpType::kStat:
      return "stat";
    case OpType::kUnlink:
      return "unlink";
    case OpType::kMkdir:
      return "mkdir";
    case OpType::kCount:
      break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Harness: set-up and phases
// ---------------------------------------------------------------------------

Harness::Harness(Options opt) : opt_(std::move(opt)) {}

const char* Harness::LayerName(int layer) {
  static const char* const kNames[kLayers] = {"kclient", "gvfs.client", "gvfs.server",
                                               "nfs3",    "fleet",       "untagged"};
  return kNames[layer];
}

void Harness::Attach(workloads::Testbed& bed, std::size_t trace_capacity) {
  bed_ = &bed;
  server_host_ = bed.server_host();
  if (opt_.traced) trace_ = &bed.EnableTracing(trace_capacity);
}

void Harness::AddWanLink(HostId a, HostId b) { wan_links_.emplace_back(a, b); }

void Harness::MarkClientHosts() {
  client_host_.assign(bed_->network().HostCount(), false);
  for (int i = 0; i < bed_->ClientCount(); ++i) client_host_[bed_->client_host(i)] = true;
}

void Harness::AddSession(workloads::GvfsSession& session) {
  MarkClientHosts();
  mounts_.insert(mounts_.end(), session.mounts.begin(), session.mounts.end());
  proxies_.insert(proxies_.end(), session.proxies.begin(), session.proxies.end());
  servers_.push_back(session.server);
  rpc_stats_.push_back(session.stats);
}

void Harness::AddSession(workloads::FleetSession& session) {
  MarkClientHosts();
  mounts_.insert(mounts_.end(), session.mounts.begin(), session.mounts.end());
  proxies_.insert(proxies_.end(), session.proxies.begin(), session.proxies.end());
  servers_.insert(servers_.end(), session.shards.begin(), session.shards.end());
  if (session.aggregator != nullptr) aggregators_.push_back(session.aggregator);
  rpc_stats_.push_back(session.stats);
}

void Harness::Phase(const std::string& name) {
  if (!phases_.empty() && phases_.back().sim_end < 0) {
    PhaseRecord& open = phases_.back();
    open.end = host::Now();
    open.events_end = events_;
    open.sim_end = Now();
    if (open.name == "timed") {
      timed_ = false;
      at_timed_end_ = Capture();
      const LinkTotals now = WanTotals();
      wan_timed_.packets = now.packets - wan_at_timed_start_.packets;
      wan_timed_.bytes = now.bytes - wan_at_timed_start_.bytes;
      wan_timed_.dropped = now.dropped - wan_at_timed_start_.dropped;
    }
  }
  if (name.empty()) return;
  PhaseRecord record;
  record.name = name;
  record.events_start = events_;
  record.sim_start = Now();
  record.sim_end = -1;  // open
  if (name == "timed") {
    at_timed_start_ = Capture();
    wan_at_timed_start_ = WanTotals();
    timed_ = true;
  }
  record.start = host::Now();
  phases_.push_back(record);
  if (name == "timed") {
    last_step_cpu_ns_ = host::ThreadCpuNs();
    last_step_allocs_ = host::AllocCount();
    last_minflt_ = host::MinorFaults();
  }
}

const Harness::PhaseRecord* Harness::FindPhase(const std::string& name) const {
  for (const PhaseRecord& p : phases_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Drive loop and layer attribution
// ---------------------------------------------------------------------------

void Harness::Drive(sim::Task<void> task) {
  bool done = false;
  sim::Spawn(MarkDone(std::move(task), &done));
  sim::Scheduler& sched = bed_->sched();
  while (!done) {
    if (sched.Idle()) {
      report_.Error("workload stalled: event queue drained before it finished");
      std::fprintf(stdout, "%s\n", report_.Json(opt_, attempted_, failed_).c_str());
      std::exit(1);
    }
    Step();
  }
}

void Harness::Idle(Duration d) { Drive(SleepFor(&bed_->sched(), d)); }

void Harness::Step() {
  sim::Scheduler& sched = bed_->sched();
  if (trace_ != nullptr && timed_) {
    TracedStep();
  } else {
    events_ += sched.Run(1);
  }
  pending_peak_ = std::max(pending_peak_, sched.PendingEvents());
}

void Harness::TracedStep() {
  const std::uint64_t e0 = trace_->recorded();
  events_ += bed_->sched().Run(1);
  // One reading per step: a step is charged from the previous step's reading
  // to its own, so the loop's own bookkeeping goes with the step after it.
  const std::int64_t cpu = host::ThreadCpuNs();
  const std::uint64_t allocs = host::AllocCount();
  const std::uint64_t e1 = trace_->recorded();

  int layer = kUntagged;
  if (e1 > e0 && trace_->dropped() == 0) {
    for (std::uint64_t i = e0; i < e1; ++i) Learn(trace_->at(i));
    layer = LayerOf(trace_->at(e0));
  }
  LayerCost& cost = layer_cost_[layer];
  cost.cpu_ns += cpu - last_step_cpu_ns_;
  cost.allocs += allocs - last_step_allocs_;
  // Page faults come with heap growth: read them only after a step that
  // allocated, which also takes any a non-allocating step before it made.
  if (allocs != last_step_allocs_) {
    const std::int64_t faults = host::MinorFaults();
    cost.minflt += faults - last_minflt_;
    last_minflt_ = faults;
  }
  last_step_cpu_ns_ = cpu;
  last_step_allocs_ = allocs;
}

void Harness::Learn(const trace::Event& ev) {
  // A same-host call names both ends: on a client host the kernel client
  // calls its local proxy client; on the server host a proxy server calls
  // nfsd (NFS program) or a peer shard (GVFS program).
  if (ev.type != trace::EventType::kRpcSend) return;
  const trace::RpcPayload& rpc = ev.u.rpc;
  if (rpc.peer_host != ev.host) return;
  const std::uint64_t caller = NodeKey(ev.host, ev.port);
  const std::uint64_t callee = NodeKey(rpc.peer_host, rpc.peer_port);
  if (ev.host == server_host_) {
    node_layer_.emplace(caller, kGvfsServer);
    node_layer_.emplace(callee, rpc.prog == gvfs::nfs3::kProgram ? kNfs3 : kGvfsServer);
  } else {
    node_layer_.emplace(caller, kKclient);
    node_layer_.emplace(callee, kGvfsClient);
  }
}

int Harness::LayerOf(const trace::Event& ev) const {
  if (ev.port != 0) {
    auto it = node_layer_.find(NodeKey(ev.host, ev.port));
    if (it != node_layer_.end()) return it->second;
  }
  if (ev.host == server_host_) return kGvfsServer;
  if (ev.host < client_host_.size() && client_host_[ev.host]) return kGvfsClient;
  return kFleet;
}

Harness::LinkTotals Harness::WanTotals() const {
  LinkTotals total;
  const gvfs::net::Network& net = bed_->network();
  for (const auto& [a, b] : wan_links_) {
    for (const auto& stats : {net.StatsFor(a, b), net.StatsFor(b, a)}) {
      total.packets += stats.packets;
      total.bytes += stats.bytes;
      total.dropped += stats.dropped;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Ops and staleness
// ---------------------------------------------------------------------------

void Harness::Op(OpType type, SimTime start, bool ok) {
  if (!timed_) return;
  latency_[static_cast<int>(type)].push_back(Now() - start);
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++op_failed_[static_cast<int>(type)];
  }
}

sim::Task<kclient::VfsResult<Bytes>> Harness::Read(kclient::KernelClient& mount,
                                                   kclient::Fd fd, memfs::InodeId ino,
                                                   std::uint64_t offset,
                                                   std::uint32_t count) {
  const SimTime start = Now();
  // What the server had committed for this block before the read began.
  Stamp committed;
  SimTime committed_at = 0;
  if (timed_) {
    memfs::MemFs& fs = bed_->fs();
    if (auto head = fs.Read(ino, offset, kStampBytes)) {
      committed = ParseStamp(head->data.data(), head->data.size());
    }
    if (auto attr = fs.GetAttr(ino)) committed_at = attr->mtime;
  }
  auto result = co_await mount.Read(fd, offset, count);
  Op(OpType::kRead, start, result.has_value());
  if (timed_ && committed.valid && result.has_value()) {
    ++reads_checked_;
    const Stamp got = ParseStamp(result->data(), result->size());
    if (!got.valid || got.file != committed.file || got.block != committed.block) {
      ++corrupt_reads_;
    } else if (got.version < committed.version) {
      ++stale_reads_;
      // Age: how long the first version the reader missed had been
      // committed when the read began.
      SimTime born = committed_at;
      auto it = commits_.find({got.file, got.block});
      if (it != commits_.end() && got.version + 1 < it->second.size() &&
          it->second[got.version + 1] > 0) {
        born = it->second[got.version + 1];
      }
      stale_max_ = std::max(stale_max_, start - born);
    }
  }
  co_return result;
}

void Harness::NoteCommitted(std::uint64_t file, std::uint32_t block,
                            std::uint32_t version, memfs::InodeId ino) {
  auto attr = bed_->fs().GetAttr(ino);
  if (!attr) return;
  std::vector<SimTime>& times = commits_[{file, block}];
  if (times.size() <= version) times.resize(version + 1, 0);
  if (times[version] == 0) times[version] = attr->mtime;
}

sim::Task<void> Harness::VerifyFile(kclient::KernelClient& mount, std::string path) {
  ++verify_files_;
  memfs::MemFs& fs = bed_->fs();
  Bytes expected;
  auto ino = fs.ResolvePath(path);
  if (ino) {
    if (auto attr = fs.GetAttr(*ino)) {
      if (auto data = fs.Read(*ino, 0, static_cast<std::uint32_t>(attr->size))) {
        expected = std::move(data->data);
      }
    }
  }
  Bytes got;
  bool ok = ino.has_value();
  auto fd = co_await mount.Open(path, kclient::OpenFlags{});
  if (fd) {
    constexpr std::uint32_t kChunk = 32 * 1024;
    while (true) {
      auto chunk = co_await mount.Read(*fd, got.size(), kChunk);
      if (!chunk) {
        ok = false;
        break;
      }
      got.insert(got.end(), chunk->begin(), chunk->end());
      if (chunk->size() < kChunk) break;
    }
    ok = (co_await mount.Close(*fd)).has_value() && ok;
  } else {
    ok = false;
  }
  if (!ok || got != expected) {
    ++verify_mismatches_;
    if (verify_mismatches_ <= 5) {
      report_.Error("read-back of " + path + " through a client differs from memfs (" +
                    std::to_string(got.size()) + " vs " +
                    std::to_string(expected.size()) + " bytes)");
    }
  }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

Harness::Counters Harness::Capture() const {
  Counters c;
  for (const kclient::KernelClient* m : mounts_) {
    const kclient::ClientStats& s = m->stats();
    c["kclient.attr_hits"] += static_cast<double>(s.attr_hits);
    c["kclient.attr_misses"] += static_cast<double>(s.attr_misses);
    c["kclient.dnlc_hits"] += static_cast<double>(s.dnlc_hits);
    c["kclient.dnlc_misses"] += static_cast<double>(s.dnlc_misses);
    c["kclient.page_hits"] += static_cast<double>(s.page_hits);
    c["kclient.page_misses"] += static_cast<double>(s.page_misses);
  }
  for (proxy::ProxyClient* p : proxies_) {
    const proxy::ProxyClientStats& s = p->stats();
    c["gvfs.client.served_locally"] += static_cast<double>(s.served_locally);
    c["gvfs.client.forwarded"] += static_cast<double>(s.forwarded);
    c["gvfs.client.polls"] += static_cast<double>(s.polls);
    c["gvfs.client.invalidations_applied"] += static_cast<double>(s.invalidations_applied);
    c["gvfs.client.force_invalidations"] += static_cast<double>(s.force_invalidations);
    c["gvfs.client.prefetched"] += static_cast<double>(s.blocks_prefetched);
    c["gvfs.client.prefetch_discarded"] += static_cast<double>(s.prefetches_discarded);
    c["gvfs.client.migrations"] += static_cast<double>(s.migrations);
    c["gvfs.disk_cache_bytes"] += static_cast<double>(p->cache().CachedBytes());
    if (const gvfs::policy::PolicyEngine* engine = p->policy()) {
      c["policy.decisions"] += static_cast<double>(engine->decisions());
      c["policy.promotions"] += static_cast<double>(engine->promotions());
      c["policy.demotions"] += static_cast<double>(engine->demotions());
    }
  }
  for (const proxy::ProxyServer* s : servers_) {
    const proxy::ProxyServerStats& st = s->stats();
    c["gvfs.server.forwarded"] += static_cast<double>(st.forwarded);
    c["gvfs.server.getinv_served"] += static_cast<double>(st.getinv_served);
    c["gvfs.server.inv_wraps"] += static_cast<double>(st.inv_wraps);
    c["gvfs.server.notifyinv_sent"] += static_cast<double>(st.notifyinv_sent);
    c["gvfs.server.inv_entries_peak"] += static_cast<double>(st.inv_entries_peak);
  }
  for (const gvfs::fleet::InvAggregator* a : aggregators_) {
    const gvfs::fleet::InvAggregatorStats& st = a->stats();
    c["fleet.upstream_polls"] += static_cast<double>(st.upstream_polls);
    c["fleet.getinv_served"] += static_cast<double>(st.getinv_served);
    c["fleet.handles_fanned_out"] += static_cast<double>(st.handles_fanned_out);
    c["fleet.inv_entries_peak"] += static_cast<double>(st.inv_entries_peak);
  }
  double peak_in_flight = 0;
  for (const gvfs::rpc::StatsMap* stats : rpc_stats_) {
    for (const std::string& label : stats->Labels()) {
      c["rpc.calls." + label] += static_cast<double>(stats->Calls(label));
    }
    peak_in_flight = std::max(peak_in_flight, static_cast<double>(stats->PeakInFlight()));
  }
  c["rpc.peak_in_flight"] = peak_in_flight;
  c["nfs3.calls"] = static_cast<double>(bed_->nfsd().served().TotalCalls());
  c["memfs.inodes"] = static_cast<double>(bed_->fs().InodeCount());
  c["memfs.bytes"] = static_cast<double>(bed_->fs().TotalBytes());
  return c;
}

void Harness::PolicyTickCost() {
  // The engine's per-window cost grows with its tracked files: time Tick
  // directly at the largest tracked-file count any client reached.
  std::size_t tracked = 0;
  for (proxy::ProxyClient* p : proxies_) {
    if (p->policy() == nullptr) continue;
    const gvfs::JsonValue snap =
        gvfs::JsonParser().Parse(p->policy()->SnapshotState().Dump());
    tracked = std::max(tracked, snap["files"].size());
  }
  gvfs::policy::PolicyEngine engine;
  for (std::size_t i = 0; i < tracked; ++i) engine.OnRead({1, i + 1});
  const std::size_t ticks =
      std::clamp<std::size_t>(4'000'000 / std::max<std::size_t>(tracked, 1000), 20, 4000);
  const std::int64_t t0 = host::CpuNs();
  for (std::size_t i = 0; i < ticks; ++i) {
    (void)engine.Tick(static_cast<SimTime>(i + 1) * gvfs::Seconds(5));
  }
  const std::int64_t t1 = host::CpuNs();
  report_.Add("policy.tracked_files", static_cast<double>(tracked), "count", Kind::kTrace);
  report_.Add("policy.tick_us", static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(ticks),
              "us", Kind::kTrace);
}

// ---------------------------------------------------------------------------
// Finish: every harness-owned metric
// ---------------------------------------------------------------------------

void Harness::Finish() {
  Phase("");
  Report& r = report_;
  const PhaseRecord* timed = FindPhase("timed");
  if (timed == nullptr) {
    r.Error("workload has no timed phase");
    return;
  }

  // --- end to end ---
  const double timed_cpu_s = static_cast<double>(timed->end.cpu_ns - timed->start.cpu_ns) / 1e9;
  double setup_cpu_ns = 0;
  for (const PhaseRecord& p : phases_) {
    if (&p == timed) break;
    setup_cpu_ns += static_cast<double>(p.end.cpu_ns - p.start.cpu_ns);
  }
  std::vector<Duration> all;
  for (const auto& lat : latency_) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  double sum_ns = 0;
  for (Duration d : all) sum_ns += static_cast<double>(d);
  const double p99 = Percentile(all, 99);
  const auto beyond_p99 = static_cast<double>(
      all.end() - std::upper_bound(all.begin(), all.end(), static_cast<Duration>(p99)));
  const double stale_pct = Report::Pct(static_cast<double>(stale_reads_),
                                       static_cast<double>(reads_checked_));
  const double fail_pct = Report::Pct(static_cast<double>(failed_),
                                      static_cast<double>(attempted_));

  r.Add("ops_per_s", timed_cpu_s > 0 ? static_cast<double>(attempted_) / timed_cpu_s : 0,
        "ops/s", Kind::kHost);
  r.Add("setup_s", setup_cpu_ns / 1e9, "s", Kind::kHost);
  r.Add("peak_rss_mb", host::PeakRssMb(), "MB", Kind::kHost);
  r.Add("sim_s", gvfs::ToSeconds(timed->sim_end - timed->sim_start), "s", Kind::kSim);
  r.Add("op_mean_ms", all.empty() ? 0 : Ms(sum_ns / static_cast<double>(all.size())), "ms",
        Kind::kSim);
  r.Add("op_p50_ms", Ms(Percentile(all, 50)), "ms", Kind::kSim);
  r.Add("op_p99_ms", Ms(p99), "ms", Kind::kSim);
  r.Add("wan_rpcs", static_cast<double>(wan_timed_.packets) / 2, "count", Kind::kSim);
  r.Add("wan_mb", static_cast<double>(wan_timed_.bytes) / kMiB, "MB", Kind::kSim);
  r.Add("stale_read_pct", stale_pct, "%", Kind::kSim);
  r.Add("fresh_read_pct", 100.0 - stale_pct, "%", Kind::kSim);
  r.Add("op_fail_pct", fail_pct, "%", Kind::kSim);
  r.Add("op_ok_pct", 100.0 - fail_pct, "%", Kind::kSim);

  // --- ops ---
  r.Add("op.count", static_cast<double>(attempted_), "count", Kind::kSim);
  r.Add("op.beyond_p99", beyond_p99, "count", Kind::kSim);
  for (int t = 0; t < static_cast<int>(OpType::kCount); ++t) {
    std::vector<Duration> lat = latency_[t];
    std::sort(lat.begin(), lat.end());
    const std::string prefix = std::string("op.") + OpName(static_cast<OpType>(t));
    r.Add(prefix + "_count", static_cast<double>(lat.size()), "count", Kind::kSim);
    r.Add(prefix + "_p50_ms", Ms(Percentile(lat, 50)), "ms", Kind::kSim);
  }
  r.Add("reads.checked", static_cast<double>(reads_checked_), "count", Kind::kSim);
  r.Add("stale.reads", static_cast<double>(stale_reads_), "count", Kind::kSim);
  r.Add("stale.max_ms", Ms(static_cast<double>(stale_max_)), "ms", Kind::kSim);
  r.Add("stale.max_of_bound_pct",
        Report::Pct(static_cast<double>(stale_max_), static_cast<double>(staleness_bound_)),
        "%", Kind::kSim);
  if (corrupt_reads_ > 0) {
    r.Error(std::to_string(corrupt_reads_) + " reads returned bytes of another file or block");
  }
  if (staleness_bound_ > 0 && stale_max_ > staleness_bound_) {
    r.Error("a stale read was " + std::to_string(Ms(static_cast<double>(stale_max_))) +
            " ms old, beyond the " + staleness_formula_ + " bound of " +
            std::to_string(Ms(static_cast<double>(staleness_bound_))) + " ms");
  }
  r.Add("verify.files", static_cast<double>(verify_files_), "count", Kind::kSim);
  if (verify_files_ == 0) r.Error("no file was read back for the convergence check");

  // --- scheduler, network ---
  const double timed_events = static_cast<double>(timed->events_end - timed->events_start);
  r.Add("sim.events", timed_events, "count", Kind::kSim);
  r.Add("sim.host_ns_per_event", timed_events > 0 ? timed_cpu_s * 1e9 / timed_events : 0, "ns",
        Kind::kHost);
  r.Add("sim.pending_peak", static_cast<double>(pending_peak_), "count", Kind::kSim);
  r.Add("net.wan_packets", static_cast<double>(wan_timed_.packets), "count", Kind::kSim);
  r.Add("net.drops", static_cast<double>(wan_timed_.dropped), "count", Kind::kSim);

  // --- component counters: timed-phase deltas; peaks and sizes at the end ---
  auto delta = [this](const std::string& name) {
    auto end = at_timed_end_.find(name);
    auto start = at_timed_start_.find(name);
    return (end == at_timed_end_.end() ? 0 : end->second) -
           (start == at_timed_start_.end() ? 0 : start->second);
  };
  auto end_value = [this](const std::string& name) {
    auto it = at_timed_end_.find(name);
    return it == at_timed_end_.end() ? 0.0 : it->second;
  };
  for (const char* proc : {"GETATTR", "LOOKUP", "ACCESS", "READ", "WRITE", "COMMIT", "CREATE",
                           "REMOVE", "READDIR", "GETINV", "CALLBACK", "NOTIFYINV", "MIGRATE"}) {
    r.Add(std::string("rpc.calls.") + proc, delta(std::string("rpc.calls.") + proc), "count",
          Kind::kSim);
  }
  r.Add("rpc.peak_in_flight", end_value("rpc.peak_in_flight"), "count", Kind::kSim);
  for (const char* cache : {"attr", "dnlc", "page"}) {
    const std::string base = std::string("kclient.") + cache;
    const double hits = delta(base + "_hits");
    const double lookups = hits + delta(base + "_misses");
    r.Add(base + "_hit_pct", Report::Pct(hits, lookups), "%", Kind::kSim);
    r.Add(base + "_lookups", lookups, "count", Kind::kSim);
  }
  const double local = delta("gvfs.client.served_locally");
  const double requests = local + delta("gvfs.client.forwarded");
  r.Add("gvfs.client.local_serve_pct", Report::Pct(local, requests), "%", Kind::kSim);
  r.Add("gvfs.client.requests", requests, "count", Kind::kSim);
  const double prefetched = delta("gvfs.client.prefetched");
  r.Add("gvfs.client.prefetch_useful_pct",
        Report::Pct(prefetched - delta("gvfs.client.prefetch_discarded"), prefetched), "%",
        Kind::kSim);
  r.Add("gvfs.client.prefetched", prefetched, "count", Kind::kSim);
  for (const char* name : {"gvfs.client.polls", "gvfs.client.invalidations_applied",
                           "gvfs.client.force_invalidations", "gvfs.client.migrations",
                           "gvfs.server.forwarded", "gvfs.server.getinv_served",
                           "gvfs.server.inv_wraps", "gvfs.server.notifyinv_sent",
                           "fleet.upstream_polls", "fleet.getinv_served",
                           "fleet.handles_fanned_out", "policy.decisions", "policy.promotions",
                           "policy.demotions", "nfs3.calls"}) {
    r.Add(name, delta(name), "count", Kind::kSim);
  }
  r.Add("gvfs.disk_cache_mb", end_value("gvfs.disk_cache_bytes") / kMiB, "MB", Kind::kSim);
  r.Add("gvfs.server.inv_entries_peak", end_value("gvfs.server.inv_entries_peak"), "count",
        Kind::kSim);
  r.Add("fleet.inv_entries_peak", end_value("fleet.inv_entries_peak"), "count", Kind::kSim);
  r.Add("memfs.inodes", end_value("memfs.inodes"), "count", Kind::kSim);
  r.Add("memfs.mb", end_value("memfs.bytes") / kMiB, "MB", Kind::kSim);

  // --- host work ---
  const host::Sample& s0 = timed->start;
  const host::Sample& s1 = timed->end;
  const double user_sys = static_cast<double>((s1.user_ns - s0.user_ns) + (s1.sys_ns - s0.sys_ns));
  r.Add("alloc.count", static_cast<double>(s1.allocs - s0.allocs), "count", Kind::kHost);
  r.Add("alloc.mb", static_cast<double>(s1.alloc_bytes - s0.alloc_bytes) / kMiB, "MB",
        Kind::kHost);
  r.Add("host.minflt", static_cast<double>(s1.minflt - s0.minflt), "count", Kind::kHost);
  r.Add("host.sys_pct", Report::Pct(static_cast<double>(s1.sys_ns - s0.sys_ns), user_sys), "%",
        Kind::kHost);
  r.Add("host.cpu_ms", timed_cpu_s * 1e3, "ms", Kind::kHost);
  std::int64_t setup_minflt = 0;
  for (const char* phase : {"topology", "population", "sessions", "cold"}) {
    const PhaseRecord* p = FindPhase(phase);
    const double ms = p == nullptr ? 0 : Ms(static_cast<double>(p->end.cpu_ns - p->start.cpu_ns));
    if (p != nullptr) setup_minflt += p->end.minflt - p->start.minflt;
    r.Add(std::string("setup.") + phase + "_ms", ms, "ms", Kind::kHost);
  }
  r.Add("setup.minflt", static_cast<double>(setup_minflt), "count", Kind::kHost);

  // --- traced run: layer split and protocol invariants ---
  if (trace_ != nullptr) {
    double traced_ns = 0;
    for (const LayerCost& cost : layer_cost_) traced_ns += static_cast<double>(cost.cpu_ns);
    r.Add("trace.host_ms", Ms(traced_ns), "ms", Kind::kTrace);
    for (int layer = 0; layer < kLayers; ++layer) {
      const std::string name = LayerName(layer);
      const auto ns = static_cast<double>(layer_cost_[layer].cpu_ns);
      r.Add(name + ".host_ms", Ms(ns), "ms", Kind::kTrace);
      r.Add(name + ".host_pct", Report::Pct(ns, traced_ns), "%", Kind::kTrace);
      r.Add(name + ".allocs", static_cast<double>(layer_cost_[layer].allocs), "count",
            Kind::kTrace);
      r.Add(name + ".minflt", static_cast<double>(layer_cost_[layer].minflt), "count",
            Kind::kTrace);
    }
    std::uint64_t retransmits = 0;
    for (std::size_t i = 0; i < trace_->size(); ++i) {
      if (trace_->at(i).type == trace::EventType::kRpcRetransmit) ++retransmits;
    }
    r.Add("rpc.retransmits", static_cast<double>(retransmits), "count", Kind::kTrace);
    r.Add("trace.events", static_cast<double>(trace_->recorded()), "count", Kind::kTrace);
    r.Add("trace.timed_cpu_ms", timed_cpu_s * 1e3, "ms", Kind::kTrace);
    if (trace_->dropped() != 0) {
      r.Error("trace ring overflowed (" + std::to_string(trace_->dropped()) +
              " events dropped): raise the capacity");
    }
    trace::TraceChecker checker(proxy::NfsTraceCheckerConfig());
    const auto violations = checker.Check(*trace_);
    r.Add("trace.violations", static_cast<double>(violations.size()), "count", Kind::kTrace);
    if (!violations.empty()) {
      r.Error("TraceChecker: " + std::to_string(violations.size()) + " violations\n" +
              trace::FormatViolations(violations));
    }
    PolicyTickCost();
  }
}

}  // namespace perfbench
