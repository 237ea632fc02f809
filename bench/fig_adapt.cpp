// Adaptive consistency (fig_adapt): a three-phase mixed workload driven
// against three static configurations and the adaptive policy engine
// (src/policy), measuring the case the engine exists to make: no single
// static consistency model wins every phase, and per-file runtime migration
// beats both static choices end to end.
//
//   phase 1 (read-mostly):      one writer seeds a config-file set, then all
//                               three clients re-read it in rounds. Polling
//                               and delegation both serve this locally; the
//                               adaptive engine promotes the set to read
//                               delegations.
//   phase 2 (write-burst):      client 0 rewrites /hot in a timed burst
//                               while client 1 polls it for the final value.
//                               Static polling is stale for up to a full
//                               poll period; delegation (and the promoted
//                               adaptive session) learns via recall push.
//                               The phase clock runs until the reader
//                               actually observes the last write, so this
//                               measures freshness, not op cost.
//   phase 3 (shared contention): every client reads AND appends to every
//                               file in rounds. Static delegation bounces
//                               grants (each write pays recall round trips
//                               for the whole phase); polling is cheap; the
//                               adaptive engine demotes the set back to
//                               polling after its hysteresis window.
//
// Every point runs under the TraceChecker — including invariant 6 (no
// migration may strand a buffered invalidation) — and fails on a truncated
// trace, so the timings can never come from a run that lost consistency
// events. All reported fields are virtual-time deterministic; CI gates
// BENCH_adapt.json exactly (tools/bench/compare.py --adapt-*). `--smoke`
// runs the three single-server points with identical per-point config; the
// full run adds the 2-shard fleet point (MIGRATE routed to the owning
// shard).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/anomaly.h"
#include "trace/checker.h"
#include "trace/export.h"
#include "workloads/testbed.h"

namespace gvfs::bench {
namespace {

using workloads::FleetConfig;
using workloads::FleetSession;
using workloads::GvfsSession;
using workloads::Testbed;

constexpr int kClients = 3;
constexpr int kCfgFiles = 6;          // /cfg0../cfg5, plus /hot
constexpr int kReadRounds = 12;       // phase 1
constexpr int kBursts = 12;           // phase 2 writer burst count
constexpr int kContendRounds = 8;     // phase 3
constexpr std::uint32_t kBlock = 1024;
constexpr Duration kPollPeriod = Seconds(10);
constexpr Duration kReadGap = Seconds(1);
constexpr Duration kBurstGap = Milliseconds(2500);
constexpr Duration kProbeGap = Seconds(1);
constexpr Duration kContendGap = Seconds(1);
// Lets the last demotions/migrations settle before teardown, so the traced
// run ends in a quiesced state the checker can vet.
constexpr Duration kSettle = Seconds(12);

enum class Mode { kPolling, kDelegation, kAdaptive, kAdaptiveSharded };

const char* ModeKey(Mode mode) {
  switch (mode) {
    case Mode::kPolling:
      return "polling";
    case Mode::kDelegation:
      return "delegation";
    case Mode::kAdaptive:
      return "adaptive";
    case Mode::kAdaptiveSharded:
      return "adaptive_sharded";
  }
  return "?";
}

std::vector<std::string> FileSet() {
  std::vector<std::string> files;
  for (int f = 0; f < kCfgFiles; ++f) files.push_back("/cfg" + std::to_string(f));
  files.push_back("/hot");
  return files;
}

struct PhaseTimes {
  SimTime start = 0;
  SimTime p1_end = 0;
  SimTime p2_end = 0;
  SimTime p3_end = 0;
};

struct Point {
  Mode mode = Mode::kPolling;
  double phase1_s = 0;
  double phase2_s = 0;
  double phase3_s = 0;
  double total_s = 0;
  std::uint64_t migrations = 0;   // client MIGRATE handshakes completed
  std::uint64_t promotions = 0;   // policy commits toward delegation
  std::uint64_t demotions = 0;    // policy commits toward polling
  std::uint64_t storm_freezes = 0;
  std::uint64_t inv_drained = 0;  // invalidations delivered inside MIGRATE
  std::uint64_t recalls = 0;      // server-side recall callbacks (rd+wr)
  std::uint64_t callbacks = 0;
  std::uint64_t getinv = 0;
  std::uint64_t applied = 0;      // invalidations applied across clients

  // Staleness-probe read-out for the SLO gate (printed under --check, kept
  // out of the JSON so BENCH_adapt.json stays byte-identical).
  std::uint64_t staleness_count = 0;
  std::uint64_t staleness_p99_us = 0;
};

template <typename Session>
sim::Task<void> ReadOnce(Session& session, int client, const std::string& path) {
  kclient::OpenFlags ro{.read = true};
  auto fd = co_await session.mount(client).Open(path, ro);
  if (fd.has_value()) {
    (void)co_await session.mount(client).Read(*fd, 0, kBlock);
    (void)co_await session.mount(client).Close(*fd);
  }
}

/// Phase 2 writer: rewrites /hot in a timed burst; the final burst flips the
/// first byte to the completion marker the prober waits for.
template <typename Session>
sim::Task<void> BurstWriter(Testbed& bed, Session& session) {
  kclient::OpenFlags rw{.read = true, .write = true};
  for (int burst = 1; burst <= kBursts; ++burst) {
    auto fd = co_await session.mount(0).Open("/hot", rw);
    if (fd.has_value()) {
      const bool last = burst == kBursts;
      Bytes payload(kBlock, static_cast<std::uint8_t>(last ? 0xFF : burst));
      (void)co_await session.mount(0).Write(*fd, 0, payload);
      (void)co_await session.mount(0).Close(*fd);
    }
    if (burst != kBursts) co_await sim::Sleep(bed.sched(), kBurstGap);
  }
}

/// Phase 2 prober: client 1 re-reads /hot until it observes the completion
/// marker. How long this takes IS the freshness of the consistency model.
template <typename Session>
sim::Task<void> Prober(Testbed& bed, Session& session) {
  kclient::OpenFlags ro{.read = true};
  while (true) {
    auto fd = co_await session.mount(1).Open("/hot", ro);
    if (fd.has_value()) {
      auto data = co_await session.mount(1).Read(*fd, 0, kBlock);
      (void)co_await session.mount(1).Close(*fd);
      if (data.has_value() && !data->empty() && (*data)[0] == 0xFF) co_return;
    }
    co_await sim::Sleep(bed.sched(), kProbeGap);
  }
}

template <typename Session>
sim::Task<void> Workload(Testbed& bed, Session& session, PhaseTimes* times) {
  const std::vector<std::string> files = FileSet();
  kclient::OpenFlags rw{.read = true, .write = true, .create = true};
  times->start = bed.sched().Now();

  // Phase 1: client 0 seeds the set, then everyone re-reads it in rounds.
  for (const std::string& path : files) {
    auto fd = co_await session.mount(0).Open(path, rw);
    if (!fd.has_value()) continue;
    Bytes payload(kBlock, 0x01);
    (void)co_await session.mount(0).Write(*fd, 0, payload);
    (void)co_await session.mount(0).Close(*fd);
  }
  for (int round = 0; round < kReadRounds; ++round) {
    for (int c = 0; c < kClients; ++c) {
      for (const std::string& path : files) co_await ReadOnce(session, c, path);
    }
    co_await sim::Sleep(bed.sched(), kReadGap);
  }
  times->p1_end = bed.sched().Now();

  // Phase 2: concurrent burst writer (client 0) and freshness prober
  // (client 1); the phase ends when the prober has seen the final write.
  {
    sim::WaitGroup wg(bed.sched());
    wg.Spawn(BurstWriter(bed, session));
    wg.Spawn(Prober(bed, session));
    co_await wg.Wait();
  }
  times->p2_end = bed.sched().Now();

  // Phase 3: every client reads and appends to every file, in rounds.
  for (int round = 0; round < kContendRounds; ++round) {
    for (int c = 0; c < kClients; ++c) {
      for (const std::string& path : files) {
        auto fd = co_await session.mount(c).Open(path, rw);
        if (!fd.has_value()) continue;
        (void)co_await session.mount(c).Read(*fd, 0, kBlock);
        Bytes payload(kBlock, static_cast<std::uint8_t>(0x10 + c));
        (void)co_await session.mount(c).Write(
            *fd, kBlock * static_cast<std::uint64_t>(1 + c), payload);
        (void)co_await session.mount(c).Close(*fd);
      }
    }
    co_await sim::Sleep(bed.sched(), kContendGap);
  }
  co_await sim::Sleep(bed.sched(), kSettle);
  times->p3_end = bed.sched().Now();
}

proxy::SessionConfig SessionFor(Mode mode) {
  proxy::SessionConfig config;
  config.model = mode == Mode::kDelegation
                     ? proxy::ConsistencyModel::kDelegationCallback
                     : proxy::ConsistencyModel::kInvalidationPolling;
  config.adaptive = mode == Mode::kAdaptive || mode == Mode::kAdaptiveSharded;
  config.cache_mode = proxy::CacheMode::kReadOnly;
  config.poll_period = kPollPeriod;
  config.poll_max_period = kPollPeriod;  // fixed cadence: staleness is the
                                         // measured quantity, keep it flat
  config.inv_buffer_capacity = 1 << 16;
  config.policy_period = Seconds(5);
  config.policy_dwell = Seconds(10);
  return config;
}

/// The kernel mounts defer all caching to the proxy: noac plus a zero-byte
/// page cache make every application read visible to the proxy client, which
/// is both what the policy engine classifies on and what makes the phase-2
/// staleness measurement an attribute of the consistency model rather than
/// of the kernel cache.
kclient::MountOptions MountFor() {
  kclient::MountOptions options;
  options.noac = true;
  options.max_cached_bytes = 0;
  return options;
}

void Collect(const std::vector<proxy::ProxyServer*>& shards,
             const std::vector<proxy::ProxyClient*>& proxies, Point* point) {
  for (const proxy::ProxyServer* shard : shards) {
    const proxy::ProxyServerStats& s = shard->stats();
    point->recalls += s.recalls_read + s.recalls_write;
    point->callbacks += s.callbacks_sent;
    point->getinv += s.getinv_served;
    point->inv_drained += s.inv_drained;
  }
  for (proxy::ProxyClient* proxy : proxies) {
    point->applied += proxy->stats().invalidations_applied;
    point->migrations += proxy->stats().migrations;
    if (proxy->policy() != nullptr) {
      point->promotions += proxy->policy()->promotions();
      point->demotions += proxy->policy()->demotions();
      point->storm_freezes += proxy->policy()->storm_freezes();
    }
  }
}

/// --metrics-out / --trace-out wiring for the CI bench job: the headline
/// adaptive point samples the observatory and dumps its trace.
std::optional<std::string> g_metrics_prefix;
Duration g_metrics_period = Seconds(5);
std::optional<std::string> g_trace_out;

bool RunOne(Mode mode, Point* out) {
  Testbed bed;
  for (int i = 0; i < kClients; ++i) bed.AddWanClient();

  trace::TraceBuffer& trace = bed.EnableTracing(1 << 21);
  const bool artifacts = mode == Mode::kAdaptive &&
                         (g_metrics_prefix.has_value() || g_trace_out.has_value());
  metrics::Registry& registry =
      bed.EnableMetrics(artifacts ? g_metrics_period : Seconds(5));

  Point point;
  point.mode = mode;
  PhaseTimes times;
  if (mode == Mode::kAdaptiveSharded) {
    FleetConfig config;
    config.shards = 2;
    config.aggregate = false;
    config.session = SessionFor(mode);
    FleetSession& session =
        bed.CreateFleetSession(config, {0, 1, 2}, kClients, MountFor());
    Drive(bed.sched(), Workload(bed, session, &times));
    Collect(session.shards, session.proxies, &point);
    Drive(bed.sched(), session.Shutdown());
  } else {
    GvfsSession& session = bed.CreateSession(SessionFor(mode), {0, 1, 2}, MountFor());
    Drive(bed.sched(), Workload(bed, session, &times));
    Collect({session.server}, session.proxies, &point);
    Drive(bed.sched(), session.Shutdown());
  }
  point.phase1_s = ToSeconds(times.p1_end - times.start);
  point.phase2_s = ToSeconds(times.p2_end - times.p1_end);
  point.phase3_s = ToSeconds(times.p3_end - times.p2_end);
  point.total_s = ToSeconds(times.p3_end - times.start);

  // Staleness probe read-out: the testbed registers the session histogram as
  // s0.staleness_us (f0.staleness_us for the fleet point).
  const std::string staleness_key =
      std::string(mode == Mode::kAdaptiveSharded ? "f0" : "s0") +
      ".staleness_us";
  auto hist_it = registry.histograms().find(staleness_key);
  if (hist_it != registry.histograms().end()) {
    point.staleness_count = hist_it->second.hist().count();
    point.staleness_p99_us = hist_it->second.hist().Percentile(99);
  }

  if (artifacts && g_metrics_prefix.has_value()) {
    FinishMetrics(*g_metrics_prefix, ModeKey(mode), bed.metrics_registry(),
                  bed.metrics_sampler());
  }
  if (artifacts && g_trace_out.has_value()) {
    trace::ChromeTraceWriter writer;
    writer.Add(trace, {});
    if (writer.WriteTo(*g_trace_out)) {
      std::printf("trace written: %s (%zu events)\n", g_trace_out->c_str(),
                  writer.event_count());
    }
  }

  if (trace.dropped() != 0) {
    std::fprintf(stderr,
                 "FAIL: trace ring overflowed (%llu dropped) at mode=%s — "
                 "results unverifiable\n",
                 static_cast<unsigned long long>(trace.dropped()), ModeKey(mode));
    return false;
  }
  trace::TraceChecker checker(proxy::NfsTraceCheckerConfig());
  const auto violations = checker.Check(trace);
  if (!violations.empty()) {
    std::fprintf(stderr, "FAIL: trace checker at mode=%s\n%s", ModeKey(mode),
                 trace::FormatViolations(violations).c_str());
    return false;
  }
  *out = point;
  return true;
}

JsonObject PointJson(const Point& p) {
  JsonObject row;
  row.Add("mode", std::string(ModeKey(p.mode)));
  row.Add("phase1_s", p.phase1_s);
  row.Add("phase2_s", p.phase2_s);
  row.Add("phase3_s", p.phase3_s);
  row.Add("total_s", p.total_s);
  row.Add("migrations", p.migrations);
  row.Add("promotions", p.promotions);
  row.Add("demotions", p.demotions);
  row.Add("storm_freezes", p.storm_freezes);
  row.Add("inv_drained", p.inv_drained);
  row.Add("recalls", p.recalls);
  row.Add("callbacks", p.callbacks);
  row.Add("getinv", p.getinv);
  row.Add("applied", p.applied);
  return row;
}

const Point* Find(const std::vector<Point>& points, Mode mode) {
  for (const Point& p : points) {
    if (p.mode == mode) return &p;
  }
  return nullptr;
}

/// The claims the adaptive engine is sold on: each static model loses one
/// phase, and the migrating session beats both end to end.
bool CheckClaims(const std::vector<Point>& points) {
  const Point* poll = Find(points, Mode::kPolling);
  const Point* deleg = Find(points, Mode::kDelegation);
  const Point* adapt = Find(points, Mode::kAdaptive);
  if (poll == nullptr || deleg == nullptr || adapt == nullptr) {
    std::fprintf(stderr, "CHECK FAIL: missing benchmark points\n");
    return false;
  }
  bool ok = true;
  if (poll->phase2_s <= deleg->phase2_s) {
    std::fprintf(stderr,
                 "CHECK FAIL: polling was not staler than delegation in the "
                 "write burst (%.2f s vs %.2f s)\n",
                 poll->phase2_s, deleg->phase2_s);
    ok = false;
  }
  if (deleg->phase3_s <= poll->phase3_s) {
    std::fprintf(stderr,
                 "CHECK FAIL: delegation did not pay for contention "
                 "(%.2f s vs polling %.2f s)\n",
                 deleg->phase3_s, poll->phase3_s);
    ok = false;
  }
  if (adapt->total_s >= poll->total_s) {
    std::fprintf(stderr,
                 "CHECK FAIL: adaptive did not beat static polling end to "
                 "end (%.2f s vs %.2f s)\n",
                 adapt->total_s, poll->total_s);
    ok = false;
  }
  if (adapt->total_s >= deleg->total_s) {
    std::fprintf(stderr,
                 "CHECK FAIL: adaptive did not beat static delegation end to "
                 "end (%.2f s vs %.2f s)\n",
                 adapt->total_s, deleg->total_s);
    ok = false;
  }
  if (adapt->promotions == 0 || adapt->demotions == 0) {
    std::fprintf(stderr,
                 "CHECK FAIL: the engine never migrated both ways "
                 "(%llu promotions, %llu demotions)\n",
                 static_cast<unsigned long long>(adapt->promotions),
                 static_cast<unsigned long long>(adapt->demotions));
    ok = false;
  }
  if (const Point* sharded = Find(points, Mode::kAdaptiveSharded)) {
    if (sharded->migrations == 0) {
      std::fprintf(stderr,
                   "CHECK FAIL: no MIGRATE handshake reached the 2-shard "
                   "fleet\n");
      ok = false;
    }
  }
  return ok;
}

/// Staleness-SLO gate (runs under --check): every polling-path point must
/// keep its p99 cached-read staleness within the paper's proven
/// poll_period + 2*RTT budget, and the probe must actually have sampled
/// (count > 0) — a vacuously-passing gate would hide a dead probe. Static
/// delegation has no polling path to bound, so it is exempt.
bool CheckStaleness(const std::vector<Point>& points) {
  const Duration budget =
      workloads::StalenessBound(workloads::TestbedConfig{}, kPollPeriod);
  const auto budget_us = static_cast<std::uint64_t>(ToSeconds(budget) * 1e6);
  bool ok = true;
  for (const Point& p : points) {
    if (p.mode == Mode::kDelegation) continue;
    if (p.staleness_count == 0) {
      std::fprintf(stderr,
                   "CHECK FAIL: staleness probe recorded no samples at "
                   "mode=%s (dead probe?)\n",
                   ModeKey(p.mode));
      ok = false;
      continue;
    }
    std::printf("staleness SLO: mode=%-16s p99 %8llu us <= %llu us budget "
                "(%llu samples)\n",
                ModeKey(p.mode),
                static_cast<unsigned long long>(p.staleness_p99_us),
                static_cast<unsigned long long>(budget_us),
                static_cast<unsigned long long>(p.staleness_count));
    if (p.staleness_p99_us > budget_us) {
      std::fprintf(stderr,
                   "CHECK FAIL: p99 staleness %llu us exceeds the "
                   "poll_period + 2*RTT budget (%llu us) at mode=%s\n",
                   static_cast<unsigned long long>(p.staleness_p99_us),
                   static_cast<unsigned long long>(budget_us), ModeKey(p.mode));
      ok = false;
    }
  }
  return ok;
}

/// --dump-on-anomaly: a dedicated recall-storm run for the diagnosis layer.
/// Runs the adaptive point with the online watchdog armed at a deliberately
/// low recall threshold (mirrored into the policy engine's own storm
/// breaker), so the phase-3 contention rounds trip the recall-storm detector
/// mid-run and the flight recorder snapshots the session into `dump_path`.
/// Exits 0 iff the detector fired AND the dump was written — the doctor tier
/// then round-trips that dump through gvfs-doctor and expects the same
/// recall-storm verdict back.
int RunStorm(const std::string& dump_path, std::uint64_t storm_threshold) {
  Testbed bed;
  for (int i = 0; i < kClients; ++i) bed.AddWanClient();

  trace::TraceBuffer& trace = bed.EnableTracing(1 << 21);
  obs::ObsConfig obs;
  obs.watch_period = Seconds(1);
  obs.recall_storm_threshold = storm_threshold;
  bed.EnableDiagnosis(obs);
  bed.DumpOnAnomaly(dump_path);

  proxy::SessionConfig config = SessionFor(Mode::kAdaptive);
  config.policy_storm_recalls = static_cast<std::uint32_t>(storm_threshold);
  GvfsSession& session = bed.CreateSession(config, {0, 1, 2}, MountFor());

  PhaseTimes times;
  Drive(bed.sched(), Workload(bed, session, &times));
  Drive(bed.sched(), session.Shutdown());
  bed.watchdog()->ScanNow();  // flush the tail window

  if (trace.dropped() != 0) {
    std::fprintf(stderr, "FAIL: trace ring overflowed (%llu dropped)\n",
                 static_cast<unsigned long long>(trace.dropped()));
    return 1;
  }
  trace::TraceChecker checker(proxy::NfsTraceCheckerConfig());
  const auto violations = checker.Check(trace);
  if (!violations.empty()) {
    std::fprintf(stderr, "FAIL: trace checker\n%s",
                 trace::FormatViolations(violations).c_str());
    return 1;
  }

  std::uint64_t storms = 0;
  for (const obs::Anomaly& a : bed.watchdog()->anomalies()) {
    if (a.kind == obs::AnomalyKind::kRecallStorm) ++storms;
  }
  if (storms == 0) {
    std::fprintf(stderr,
                 "FAIL: no recall-storm anomaly fired (threshold %llu)\n",
                 static_cast<unsigned long long>(storm_threshold));
    return 1;
  }
  std::FILE* dump = std::fopen(dump_path.c_str(), "rb");
  if (dump == nullptr) {
    std::fprintf(stderr, "FAIL: anomaly fired but no dump at %s\n",
                 dump_path.c_str());
    return 1;
  }
  std::fclose(dump);
  std::printf("recall storm: %llu firing(s) at threshold %llu, dump written: "
              "%s\n",
              static_cast<unsigned long long>(storms),
              static_cast<unsigned long long>(storm_threshold),
              dump_path.c_str());
  return 0;
}

int Main(bool smoke, bool check, const std::optional<std::string>& json_out) {
  const std::vector<Mode> modes =
      smoke ? std::vector<Mode>{Mode::kPolling, Mode::kDelegation, Mode::kAdaptive}
            : std::vector<Mode>{Mode::kPolling, Mode::kDelegation, Mode::kAdaptive,
                                Mode::kAdaptiveSharded};

  PrintHeader("Adaptive consistency: three-phase mixed workload "
              "(read-mostly -> write-burst -> shared contention)");
  std::printf("%-17s %9s %9s %9s %9s %7s %6s %6s %8s\n", "mode", "phase1",
              "phase2", "phase3", "total", "migr", "promo", "demo", "recalls");
  PrintRule();

  std::vector<Point> points;
  for (Mode mode : modes) {
    Point point;
    if (!RunOne(mode, &point)) return 1;
    points.push_back(point);
    std::printf("%-17s %9.1f %9.1f %9.1f %9.1f %7llu %6llu %6llu %8llu\n",
                ModeKey(point.mode), point.phase1_s, point.phase2_s,
                point.phase3_s, point.total_s,
                static_cast<unsigned long long>(point.migrations),
                static_cast<unsigned long long>(point.promotions),
                static_cast<unsigned long long>(point.demotions),
                static_cast<unsigned long long>(point.recalls));
  }

  if (json_out.has_value()) {
    JsonObject doc;
    doc.Add("benchmark", "fig_adapt");
    doc.Add("smoke", smoke);
    doc.Add("cfg_files", static_cast<std::uint64_t>(kCfgFiles));
    doc.Add("read_rounds", static_cast<std::uint64_t>(kReadRounds));
    doc.Add("bursts", static_cast<std::uint64_t>(kBursts));
    doc.Add("contend_rounds", static_cast<std::uint64_t>(kContendRounds));
    doc.Add("poll_period_s", ToSeconds(kPollPeriod));
    std::vector<JsonObject> rows;
    for (const Point& p : points) rows.push_back(PointJson(p));
    doc.Add("points", rows);
    if (WriteTextFile(*json_out, doc.Dump() + "\n")) {
      std::printf("wrote %s\n", json_out->c_str());
    }
  }

  if (check) {
    bool ok = CheckClaims(points);
    ok = CheckStaleness(points) && ok;
    if (!ok) return 1;
    std::printf("CHECK OK: adaptive migration beats both static models end "
                "to end (and every polling-path point held its staleness "
                "SLO)\n");
  }
  return 0;
}

}  // namespace
}  // namespace gvfs::bench

int main(int argc, char** argv) {
  if (auto dump = gvfs::bench::FlagValue(argc, argv, "--dump-on-anomaly")) {
    std::uint64_t threshold = 2;
    if (auto t = gvfs::bench::FlagValue(argc, argv, "--storm-threshold")) {
      threshold = std::strtoull(t->c_str(), nullptr, 10);
    }
    if (threshold == 0) {
      std::fprintf(stderr, "--storm-threshold must be positive\n");
      return 2;
    }
    return gvfs::bench::RunStorm(*dump, threshold);
  }
  gvfs::bench::g_metrics_prefix =
      gvfs::bench::FlagValue(argc, argv, "--metrics-out");
  gvfs::bench::g_metrics_period = gvfs::bench::MetricsPeriod(argc, argv);
  gvfs::bench::g_trace_out = gvfs::bench::FlagValue(argc, argv, "--trace-out");
  return gvfs::bench::Main(gvfs::bench::HasFlag(argc, argv, "--smoke"),
                           gvfs::bench::HasFlag(argc, argv, "--check"),
                           gvfs::bench::FlagValue(argc, argv, "--json-out"));
}
