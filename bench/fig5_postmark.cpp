// Figure 5 (paper §5.1.1): PostMark runtime versus network round-trip time.
//
// Setups:
//   NFS    — native kernel NFS (30 s attribute cache).
//   GVFS1  — GVFS with the default kernel buffer configuration, base for the
//            invalidation-polling model.
//   GVFS2  — GVFS with kernel attribute caching disabled (noac), base for
//            the strong delegation/callback model.
//
// Paper shape to reproduce: both GVFS setups lose slightly at sub-10 ms RTT
// (user-level interception + disk-cache access), overtake NFS once the RTT
// exceeds ~10 ms, and reach >2x speedup at the 40 ms WAN point.
//
// PostMark parameters (from the figure): 600 files, 600 transactions,
// 32-640 KB files, 100 subdirectories, 32 KB blocks, read/append bias 9,
// create/delete bias 5.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "trace/checker.h"
#include "trace/export.h"
#include "workloads/postmark.h"
#include "workloads/testbed.h"

namespace gvfs::bench {
namespace {

using workloads::PostmarkConfig;
using workloads::RunPostmark;
using workloads::Testbed;
using workloads::TestbedConfig;

enum class Setup { kNfs, kGvfs1, kGvfs2 };

double RunOne(Setup setup, double rtt_ms) {
  TestbedConfig net_config;
  net_config.wan.one_way_latency = SecondsF(rtt_ms / 2.0 / 1000.0);
  net_config.wan.bandwidth_bps = 4'000'000;
  Testbed bed(net_config);
  bed.AddWanClient();

  PostmarkConfig config;  // paper defaults

  if (setup == Setup::kNfs) {
    auto& mount = bed.NativeMount(0);
    auto report = Drive(bed.sched(), RunPostmark(bed.sched(), mount, config));
    return report.TransactionSeconds();
  }

  proxy::SessionConfig session_config;
  kclient::MountOptions kernel_options;
  if (setup == Setup::kGvfs1) {
    // Default kernel buffers; invalidation polling overlays them.
    session_config.model = proxy::ConsistencyModel::kInvalidationPolling;
    session_config.poll_period = Seconds(30);
    session_config.poll_max_period = Seconds(30);
  } else {
    // noac kernel: every consistency check reaches the proxy, which realizes
    // strong consistency with delegations. Sequential read-ahead pipelines
    // the file-read halves of the transactions (the delegation protects the
    // prefetched blocks from staleness).
    session_config.model = proxy::ConsistencyModel::kDelegationCallback;
    session_config.read_ahead = 8;
    session_config.wb_window = 8;  // pipelines the unstable write-through path
    kernel_options.noac = true;
  }
  // Write-through (read caching only): writes reach the server
  // synchronously in all setups, keeping durability comparable to NFS.
  session_config.cache_mode = proxy::CacheMode::kReadOnly;
  auto& session = bed.CreateSession(session_config, {0}, kernel_options);
  auto report =
      Drive(bed.sched(), RunPostmark(bed.sched(), session.mount(0), config));
  Drive(bed.sched(), session.Shutdown());
  return report.TransactionSeconds();
}

/// One 40 ms WAN point (the paper's headline latency) for the smoke tier:
/// asserts GVFS2's pipelined read path still beats native NFS.
int Smoke() {
  const double nfs = RunOne(Setup::kNfs, 40);
  const double gvfs2 = RunOne(Setup::kGvfs2, 40);
  std::printf("fig5 smoke @40ms: NFS %.1f s, GVFS2 %.1f s (%.2fx)\n", nfs,
              gvfs2, nfs / gvfs2);
  if (gvfs2 >= nfs) {
    std::fprintf(stderr, "FAIL: GVFS2 no faster than NFS at 40 ms RTT\n");
    return 1;
  }
  return 0;
}

std::vector<std::string> HostNames(workloads::Testbed& bed) {
  std::vector<std::string> names;
  for (HostId h = 0; h < bed.network().HostCount(); ++h) {
    names.push_back(bed.network().HostName(h));
  }
  return names;
}

sim::Task<void> ConflictingStat(kclient::KernelClient& mount,
                                const char* path = "/shared.dat") {
  // A cold Stat from a second client forces the proxy server to recall the
  // write delegation the first client acquired on the shared file — that
  // recall is the CALLBACK span the trace exists to show.
  auto attr = co_await mount.Stat(path);
  (void)attr;
}

sim::Task<void> WriteShared(kclient::KernelClient& mount,
                            const char* path = "/shared.dat") {
  kclient::OpenFlags flags;
  flags.write = true;
  flags.create = true;
  auto fd = co_await mount.Open(path, flags);
  if (!fd.has_value()) co_return;
  Bytes data(32 * 1024, 0x5a);
  auto written = co_await mount.Write(*fd, 0, data);
  (void)written;
  auto closed = co_await mount.Close(*fd);
  (void)closed;
}

/// Trace mode: one small GVFS1 (polling) run for GETINV spans and one
/// two-client GVFS2 (delegation) run whose conflicting Stat produces a
/// CALLBACK span, merged into one Chrome trace file with separate tracks.
int RunTraced(const std::string& trace_out, const char* trace_dump) {
  trace::ChromeTraceWriter writer;
  std::uint64_t violations = 0;

  PostmarkConfig small;  // keep the trace readable: tens of files, not 600
  small.files = 30;
  small.transactions = 40;
  small.subdirectories = 5;
  small.max_size = 64 * 1024;

  std::ofstream dump;
  if (trace_dump != nullptr) dump.open(trace_dump, std::ios::trunc);

  {
    TestbedConfig net_config;  // paper 40 ms WAN
    Testbed bed(net_config);
    bed.AddWanClient();
    trace::TraceBuffer& buffer = bed.EnableTracing();
    proxy::SessionConfig session_config;
    session_config.model = proxy::ConsistencyModel::kInvalidationPolling;
    session_config.poll_period = Seconds(5);  // frequent GETINV spans
    session_config.poll_max_period = Seconds(5);
    auto& session = bed.CreateSession(session_config, {0});
    Drive(bed.sched(), RunPostmark(bed.sched(), session.mount(0), small));
    Drive(bed.sched(), session.Shutdown());

    trace::ChromeTraceOptions options;
    options.host_names = HostNames(bed);
    options.process_prefix = "gvfs1/";
    options.pid_offset = 0;
    writer.Add(buffer, options);
    if (dump.is_open()) trace::WriteTimeline(buffer, dump, options.host_names);
    auto found = trace::TraceChecker(proxy::NfsTraceCheckerConfig()).Check(buffer);
    violations += found.size();
    if (!found.empty()) {
      std::fprintf(stderr, "%s", trace::FormatViolations(found).c_str());
    }
    std::printf("gvfs1 trace: %llu events (%llu dropped)\n",
                static_cast<unsigned long long>(buffer.recorded()),
                static_cast<unsigned long long>(buffer.dropped()));
  }

  {
    TestbedConfig net_config;
    Testbed bed(net_config);
    bed.AddWanClient();
    bed.AddWanClient();
    trace::TraceBuffer& buffer = bed.EnableTracing();
    proxy::SessionConfig session_config;
    session_config.model = proxy::ConsistencyModel::kDelegationCallback;
    session_config.read_ahead = 8;
    session_config.wb_window = 8;
    kclient::MountOptions kernel_options;
    kernel_options.noac = true;
    auto& session = bed.CreateSession(session_config, {0, 1}, kernel_options);
    Drive(bed.sched(), RunPostmark(bed.sched(), session.mount(0), small));
    Drive(bed.sched(), WriteShared(session.mount(0)));
    Drive(bed.sched(), ConflictingStat(session.mount(1)));
    Drive(bed.sched(), session.Shutdown());

    trace::ChromeTraceOptions options;
    options.host_names = HostNames(bed);
    options.process_prefix = "gvfs2/";
    options.pid_offset = 100;  // keep the runs' tracks apart when merged
    writer.Add(buffer, options);
    if (dump.is_open()) trace::WriteTimeline(buffer, dump, options.host_names);
    auto found = trace::TraceChecker(proxy::NfsTraceCheckerConfig()).Check(buffer);
    violations += found.size();
    if (!found.empty()) {
      std::fprintf(stderr, "%s", trace::FormatViolations(found).c_str());
    }
    std::printf("gvfs2 trace: %llu events (%llu dropped)\n",
                static_cast<unsigned long long>(buffer.recorded()),
                static_cast<unsigned long long>(buffer.dropped()));
  }

  if (!writer.WriteTo(trace_out)) return 1;
  std::printf("wrote %zu Chrome trace events to %s "
              "(load at ui.perfetto.dev); %llu invariant violations\n",
              writer.event_count(), trace_out.c_str(),
              static_cast<unsigned long long>(violations));
  return violations == 0 ? 0 : 1;
}

sim::Task<void> StatLoop(sim::Scheduler& sched, kclient::KernelClient& mount,
                         const char* path, int rounds, Duration gap) {
  for (int i = 0; i < rounds; ++i) {
    auto attr = co_await mount.Stat(path);
    (void)attr;
    co_await sim::Sleep(sched, gap);
  }
}

sim::Task<void> WriteLoop(sim::Scheduler& sched, kclient::KernelClient& mount,
                          const char* path, int rounds, Duration gap) {
  for (int i = 0; i < rounds; ++i) {
    co_await WriteShared(mount, path);
    co_await sim::Sleep(sched, gap);
  }
}

/// Staleness workload for the polling session: client 1 rewrites a shared
/// file every few seconds while client 0 stats it continuously. Between a
/// write landing at the server and client 0's next GETINV, client 0 serves
/// stale cached attributes — exactly the window the staleness histogram
/// must bound by poll period + round trips.
sim::Task<void> PollingStalenessWorkload(sim::Scheduler& sched,
                                         workloads::GvfsSession& session) {
  // Prime: the writer creates the file; the reader caches its attributes.
  co_await WriteShared(session.mount(1));
  co_await ConflictingStat(session.mount(0));
  sim::WaitGroup tasks(sched);
  tasks.Spawn(WriteLoop(sched, session.mount(1), "/shared.dat", 8, Seconds(7)));
  tasks.Spawn(
      StatLoop(sched, session.mount(0), "/shared.dat", 600, Milliseconds(100)));
  co_await tasks.Wait();
}

/// Metrics mode (--metrics-out): one two-client testbed carrying a polling
/// session (staleness-bound check) and a delegation session (postmark +
/// forced recall for the hold-time and recall-write-back histograms), with
/// the registry sampled on the sim clock and exported as CSV/JSON/Prometheus.
int RunMetrics(const std::string& prefix, Duration period) {
  const Duration poll_period = Seconds(5);
  TestbedConfig net_config;  // paper 40 ms WAN
  Testbed bed(net_config);
  bed.AddWanClient();
  bed.AddWanClient();
  metrics::Registry& registry = bed.EnableMetrics(period);

  kclient::MountOptions noac;
  noac.noac = true;  // every Stat reaches the proxy, so cached serves are counted

  // Session 0: invalidation polling, fixed period (no back-off) so the
  // staleness bound below is exact.
  proxy::SessionConfig poll_config;
  poll_config.model = proxy::ConsistencyModel::kInvalidationPolling;
  poll_config.poll_period = poll_period;
  poll_config.poll_max_period = poll_period;
  auto& polling = bed.CreateSession(poll_config, {0, 1}, noac);

  // Session 1: delegation/callback with write-back; postmark drives grants
  // and the write/stat conflict forces a recall.
  proxy::SessionConfig deleg_config;
  deleg_config.model = proxy::ConsistencyModel::kDelegationCallback;
  deleg_config.read_ahead = 8;
  deleg_config.wb_window = 8;
  deleg_config.cache_mode = proxy::CacheMode::kWriteBack;
  auto& deleg = bed.CreateSession(deleg_config, {0, 1}, noac);

  PostmarkConfig small;
  small.files = 30;
  small.transactions = 40;
  small.subdirectories = 5;
  small.max_size = 64 * 1024;

  Drive(bed.sched(), PollingStalenessWorkload(bed.sched(), polling));
  Drive(bed.sched(), RunPostmark(bed.sched(), deleg.mount(0), small));
  Drive(bed.sched(), WriteShared(deleg.mount(0), "/deleg_shared.dat"));
  Drive(bed.sched(), ConflictingStat(deleg.mount(1), "/deleg_shared.dat"));
  Drive(bed.sched(), deleg.Shutdown());
  Drive(bed.sched(), polling.Shutdown());
  bed.metrics_sampler()->Stop();
  bed.metrics_sampler()->SampleNow();  // final state, post-shutdown

  int failures = 0;
  if (!WriteMetricsArtifacts(prefix, "", registry,
                             bed.metrics_sampler()->series())) {
    ++failures;
  }

  const auto& staleness = registry.GetHistogram("s0.staleness_us").hist();
  // Bound: a cached read can miss a write for at most one polling period
  // plus the GETINV round trip plus the write's own propagation (§4.2).
  const double p99_us = static_cast<double>(staleness.Percentile(99));
  const double bound_us = static_cast<double>(
      workloads::StalenessBound(net_config, poll_period) / kMicrosecond);
  std::printf("staleness (polling session): %llu cached reads, p99 %.0f us, "
              "bound %.0f us (poll %0.1f s + 2 RTT)\n",
              static_cast<unsigned long long>(staleness.count()), p99_us,
              bound_us, ToSeconds(poll_period));
  if (staleness.count() == 0) {
    std::fprintf(stderr, "FAIL: staleness histogram is empty\n");
    ++failures;
  }
  if (p99_us > bound_us) {
    std::fprintf(stderr, "FAIL: staleness p99 exceeds the polling bound\n");
    ++failures;
  }
  const auto& hold = registry.GetHistogram("s1.deleg_hold_time_us").hist();
  std::printf("delegation hold time (delegation session): %llu ended, "
              "p50 %llu us\n",
              static_cast<unsigned long long>(hold.count()),
              static_cast<unsigned long long>(hold.Percentile(50)));
  if (hold.count() == 0) {
    std::fprintf(stderr, "FAIL: no delegation hold times recorded\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Dump mode (--dump-out): the polling staleness workload under the full
/// diagnosis stack (tracing + watchdog + flight recorder); writes a
/// .gvfsdump at end of run so gvfs-doctor has a healthy reference input.
int RunDump(const std::string& path) {
  const Duration poll_period = Seconds(5);
  TestbedConfig net_config;  // paper 40 ms WAN
  Testbed bed(net_config);
  bed.AddWanClient();
  bed.AddWanClient();
  bed.EnableTracing(1 << 18);
  bed.EnableDiagnosis();
  bed.recorder()->SetMaxTraceEvents(1 << 18);  // keep the whole run

  kclient::MountOptions noac;
  noac.noac = true;
  proxy::SessionConfig poll_config;
  poll_config.model = proxy::ConsistencyModel::kInvalidationPolling;
  poll_config.poll_period = poll_period;
  poll_config.poll_max_period = poll_period;
  auto& polling = bed.CreateSession(poll_config, {0, 1}, noac);

  Drive(bed.sched(), PollingStalenessWorkload(bed.sched(), polling));
  Drive(bed.sched(), polling.Shutdown());
  bed.watchdog()->ScanNow();  // final detector pass over the run's end state

  if (!bed.recorder()->Dump(path, "fig5: end of polling staleness run")) {
    return 1;
  }
  const auto found = trace::TraceChecker(proxy::NfsTraceCheckerConfig())
                         .Check(*bed.trace_buffer());
  if (!found.empty()) {
    std::fprintf(stderr, "%s", trace::FormatViolations(found).c_str());
  }
  std::printf("wrote %s (%llu trace events, %zu anomalies, %zu violations)\n",
              path.c_str(),
              static_cast<unsigned long long>(bed.trace_buffer()->recorded()),
              bed.watchdog()->anomalies().size(), found.size());
  return (found.empty() && bed.watchdog()->anomalies().empty()) ? 0 : 1;
}

void Main(const std::optional<std::string>& json_out) {
  PrintHeader("Figure 5: PostMark transaction-phase runtime (seconds) vs RTT");
  std::printf("%-10s %10s %10s %10s\n", "RTT (ms)", "NFS", "GVFS1", "GVFS2");
  PrintRule();
  const double rtts[] = {0.5, 5, 10, 20, 40};
  double crossover_seen = -1;
  double nfs40 = 0, gvfs40 = 0;
  std::vector<JsonObject> points;
  for (double rtt : rtts) {
    const double nfs = RunOne(Setup::kNfs, rtt);
    const double gvfs1 = RunOne(Setup::kGvfs1, rtt);
    const double gvfs2 = RunOne(Setup::kGvfs2, rtt);
    std::printf("%-10.1f %10.1f %10.1f %10.1f\n", rtt, nfs, gvfs1, gvfs2);
    JsonObject point;
    point.Add("rtt_ms", rtt);
    point.Add("nfs_s", nfs);
    point.Add("gvfs1_s", gvfs1);
    point.Add("gvfs2_s", gvfs2);
    points.push_back(std::move(point));
    if (crossover_seen < 0 && gvfs1 < nfs) crossover_seen = rtt;
    if (rtt == 40) {
      nfs40 = nfs;
      gvfs40 = std::min(gvfs1, gvfs2);
    }
  }
  std::printf("\nGVFS overtakes NFS from RTT ~%.1f ms on; "
              "speedup at 40 ms: %.2fx (paper: crossover ~10 ms, >2x at 40 ms)\n",
              crossover_seen, nfs40 / gvfs40);
  std::printf("Note: with the dataset exceeding the client page cache, the\n"
              "proxy's disk-cache capacity advantage already pays off at LAN\n"
              "latency in this model, which pulls the crossover below the\n"
              "paper's ~10 ms (see EXPERIMENTS.md).\n");
  if (json_out.has_value()) {
    JsonObject doc;
    doc.Add("figure", "fig5_postmark");
    doc.Add("unit", "transaction-phase seconds");
    doc.Add("crossover_rtt_ms", crossover_seen);
    doc.Add("speedup_at_40ms", nfs40 / gvfs40);
    doc.Add("points", points);
    if (WriteTextFile(*json_out, doc.Dump() + "\n")) {
      std::printf("wrote %s\n", json_out->c_str());
    }
  }
}

}  // namespace
}  // namespace gvfs::bench

int main(int argc, char** argv) {
  using gvfs::bench::FlagValue;
  if (gvfs::bench::HasFlag(argc, argv, "--smoke")) {
    return gvfs::bench::Smoke();
  }
  const auto trace_out = FlagValue(argc, argv, "--trace-out");
  const auto trace_dump = FlagValue(argc, argv, "--trace-dump");
  if (trace_out.has_value() || trace_dump.has_value()) {
    return gvfs::bench::RunTraced(
        trace_out.value_or("BENCH_fig5_trace.json"),
        trace_dump.has_value() ? trace_dump->c_str() : nullptr);
  }
  if (const auto metrics_out = FlagValue(argc, argv, "--metrics-out")) {
    return gvfs::bench::RunMetrics(*metrics_out,
                                   gvfs::bench::MetricsPeriod(argc, argv));
  }
  if (const auto dump_out = FlagValue(argc, argv, "--dump-out")) {
    return gvfs::bench::RunDump(*dump_out);
  }
  gvfs::bench::Main(FlagValue(argc, argv, "--json-out"));
  return 0;
}
