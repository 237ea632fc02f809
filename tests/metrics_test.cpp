// Tests for the consistency observatory (src/metrics/): registry instrument
// semantics, log-histogram bucket boundaries, sim-clock sampler determinism
// (two identical runs must produce byte-identical time series), the
// staleness probe — both its filtering rules in isolation and the end-to-end
// bound under invalidation polling (measured staleness stays within the
// polling period plus round trips) — and the counter contract: every row of
// every counter table is exported, under the session's names, to the
// registry and the flight recorder's dump.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json_value.h"

#include "metrics/export.h"
#include "metrics/histogram.h"
#include "metrics/registry.h"
#include "metrics/sampler.h"
#include "metrics/staleness.h"
#include "sim/sync.h"
#include "test_util.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::OpenFlags;
using proxy::ConsistencyModel;
using proxy::SessionConfig;
using testutil::RunTask;

constexpr OpenFlags kRead{.read = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, BucketBoundariesArePowersOfTwo) {
  using metrics::LogHistogram;
  // Bucket 0 holds only value 0; bucket b holds [2^(b-1), 2^b).
  EXPECT_EQ(LogHistogram::BucketFor(0), 0u);
  EXPECT_EQ(LogHistogram::BucketFor(1), 1u);
  EXPECT_EQ(LogHistogram::BucketFor(2), 2u);
  EXPECT_EQ(LogHistogram::BucketFor(3), 2u);
  EXPECT_EQ(LogHistogram::BucketFor(4), 3u);
  EXPECT_EQ(LogHistogram::BucketFor(1023), 10u);
  EXPECT_EQ(LogHistogram::BucketFor(1024), 11u);
  // Values beyond the last bucket's range saturate into it.
  EXPECT_EQ(LogHistogram::BucketFor(std::uint64_t{1} << 50),
            LogHistogram::kBuckets - 1);
  EXPECT_EQ(LogHistogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(LogHistogram::BucketUpperBound(10), 1024u);
}

TEST(LogHistogram, PercentilesClampToRecordedMax) {
  metrics::LogHistogram hist;
  hist.Record(100);
  // Single sample: the [64, 128) bucket's upper bound would over-report, so
  // the percentile clamps to the recorded max.
  EXPECT_EQ(hist.Percentile(50), 100u);
  EXPECT_EQ(hist.Percentile(99), 100u);
  EXPECT_EQ(hist.PercentileBucketUpperBound(50), 128u);

  // Two-bucket distribution: p50 stays in the fast bucket, the tail reaches
  // the outlier.
  for (int i = 0; i < 89; ++i) hist.Record(100);
  for (int i = 0; i < 10; ++i) hist.Record(1000);
  EXPECT_EQ(hist.Percentile(50), 128u);
  EXPECT_EQ(hist.Percentile(95), 1000u);
  EXPECT_EQ(hist.Percentile(99), 1000u);
  EXPECT_EQ(hist.count(), 100u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, InstrumentReferencesSurviveLaterInsertions) {
  metrics::Registry registry;
  metrics::Counter& counter = registry.GetCounter("a");
  counter.Inc();
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("filler" + std::to_string(i));
  }
  counter.Inc(2);
  EXPECT_EQ(registry.GetCounter("a").value(), 3u);
  registry.GetGauge("g").Set(1.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g").value(), 1.5);
}

TEST(MetricsRegistry, ReRegisteringNameReturnsSameInstance) {
  metrics::Registry registry;
  metrics::Counter& counter = registry.GetCounter("dup");
  counter.Inc(5);
  // A second Get* under the same name must hand back the same instrument,
  // not a fresh zeroed one — two subsystems sharing a name share the count.
  EXPECT_EQ(&registry.GetCounter("dup"), &counter);
  EXPECT_EQ(registry.GetCounter("dup").value(), 5u);

  metrics::Gauge& gauge = registry.GetGauge("dup");  // separate namespace
  gauge.Set(2.5);
  EXPECT_EQ(&registry.GetGauge("dup"), &gauge);
  EXPECT_DOUBLE_EQ(registry.GetGauge("dup").value(), 2.5);
  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.gauges().size(), 1u);

  // Probes differ by design: re-registering replaces the callback.
  registry.AddProbe("p", [] { return 1.0; });
  registry.AddProbe("p", [] { return 2.0; });
  ASSERT_EQ(registry.probes().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.probes().at("p")(), 2.0);
}

TEST(MetricsSampler, ProbesEvaluateAtSampleTime) {
  sim::Scheduler sched;
  metrics::Registry registry;
  double live = 1.0;
  registry.AddProbe("probe", [&live] { return live; });
  metrics::Sampler sampler(sched, registry, Seconds(1));
  sampler.SampleNow();
  live = 2.0;
  sampler.SampleNow();
  ASSERT_EQ(sampler.series().size(), 2u);
  auto value_of = [](const metrics::Sample& sample, const std::string& name) {
    for (const auto& [col, val] : sample.values) {
      if (col == name) return val;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value_of(sampler.series()[0], "probe"), 1.0);
  EXPECT_DOUBLE_EQ(value_of(sampler.series()[1], "probe"), 2.0);
}

TEST(MetricsExport, CsvAndPrometheusCarryEveryInstrument) {
  sim::Scheduler sched;
  metrics::Registry registry;
  registry.GetCounter("requests").Inc(7);
  registry.GetGauge("depth").Set(3.0);
  registry.GetHistogram("lat_us").Record(100);
  metrics::Sampler sampler(sched, registry, Seconds(1));
  sampler.SampleNow();

  const std::string csv = metrics::TimeSeriesCsv(sampler.series());
  EXPECT_NE(csv.find("requests"), std::string::npos);
  EXPECT_NE(csv.find("lat_us.p99"), std::string::npos);
  const std::string prom = metrics::PrometheusText(registry);
  EXPECT_NE(prom.find("requests 7"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_count 1"), std::string::npos);
}

TEST(MetricsExport, PrometheusEscapesLabelValues) {
  metrics::Registry registry;
  // A label value carrying every character the exposition format escapes.
  const std::string name =
      metrics::Labeled("migrations", "mode", "read\"deleg\\x\ny");
  registry.GetCounter(name).Inc(3);

  const std::string prom = metrics::PrometheusText(registry);
  // The exported line carries the escaped forms \" \\ \n on one line — a
  // raw newline or quote in the value would corrupt the exposition.
  EXPECT_NE(prom.find("migrations{mode=\"read\\\"deleg\\\\x\\ny\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("read\"deleg"), std::string::npos);  // raw quote gone
  EXPECT_EQ(prom.find("deleg\\x\ny"), std::string::npos);  // raw newline gone

  // The metric name proper is still sanitized, label block untouched.
  registry.GetGauge(metrics::Labeled("queue depth", "shard", "s-0")).Set(1.0);
  const std::string prom2 = metrics::PrometheusText(registry);
  EXPECT_NE(prom2.find("queue_depth{shard=\"s-0\"} 1"), std::string::npos)
      << prom2;
}

// ---------------------------------------------------------------------------
// Staleness probe (unit)
// ---------------------------------------------------------------------------

TEST(StalenessProbe, RecordsAgeOfOldestMissedForeignVersion) {
  metrics::Registry registry;
  metrics::Histogram& hist = registry.GetHistogram("staleness_us");
  metrics::StalenessProbe probe;
  probe.SetHistogram(&hist);

  probe.StampVersion(1, 42, Seconds(1), /*writer_host=*/2);
  probe.StampVersion(1, 42, Seconds(2), /*writer_host=*/2);

  // Reader fetched before both versions and reads at t=5 s: the oldest
  // missed version (t=1 s) makes the view 4 s stale.
  probe.OnCachedRead(1, 42, /*reader_host=*/1, /*fetched_at=*/0,
                     /*now=*/Seconds(5));
  EXPECT_EQ(hist.hist().count(), 1u);
  EXPECT_EQ(hist.hist().max(), 4'000'000u);

  // After a refresh at t=3 s both versions count as seen: the read is fresh
  // and records 0 (the histogram covers every cached read).
  probe.OnCachedRead(1, 42, 1, /*fetched_at=*/Seconds(3), /*now=*/Seconds(6));
  EXPECT_EQ(hist.hist().count(), 2u);
  EXPECT_EQ(hist.hist().buckets()[0], 1u);

  // The writer's own cached reads never count its writes as missed.
  probe.OnCachedRead(1, 42, /*reader_host=*/2, /*fetched_at=*/0,
                     /*now=*/Seconds(10));
  EXPECT_EQ(hist.hist().count(), 3u);
  EXPECT_EQ(hist.hist().buckets()[0], 2u);

  // Reads of files never stamped record 0 as well.
  probe.OnCachedRead(1, 99, 1, 0, Seconds(10));
  EXPECT_EQ(hist.hist().buckets()[0], 3u);
}

// ---------------------------------------------------------------------------
// End-to-end: sampler determinism and the staleness bound under polling
// ---------------------------------------------------------------------------

constexpr Duration kPollPeriod = Seconds(2);

sim::Task<void> ReadLoop(sim::Scheduler& sched, kclient::KernelClient& mount,
                         const char* path, int rounds, Duration gap) {
  for (int i = 0; i < rounds; ++i) {
    auto fd = co_await mount.Open(path, kRead);
    if (fd.has_value()) {
      (void)co_await mount.Read(*fd, 0, 64);
      (void)co_await mount.Close(*fd);
    }
    co_await sim::Sleep(sched, gap);
  }
}

sim::Task<void> WriteLoop(sim::Scheduler& sched, kclient::KernelClient& mount,
                          const char* path, int rounds, Duration gap) {
  for (int i = 0; i < rounds; ++i) {
    auto fd = co_await mount.Open(path, kCreateWrite);
    if (fd.has_value()) {
      (void)co_await mount.Write(*fd, 0, Bytes(256, static_cast<std::uint8_t>(i + 1)));
      (void)co_await mount.Close(*fd);
    }
    co_await sim::Sleep(sched, gap);
  }
}

sim::Task<void> WriterReaderWorkload(sim::Scheduler& sched,
                                     GvfsSession& session) {
  // Client 1 seeds the file, client 0 caches it, then both loop: the writer
  // mutates every 3 s while the reader polls its cache every 100 ms.
  co_await WriteLoop(sched, session.mount(1), "/shared", 1, Milliseconds(1));
  co_await ReadLoop(sched, session.mount(0), "/shared", 1, Milliseconds(1));
  sim::WaitGroup tasks(sched);
  tasks.Spawn(WriteLoop(sched, session.mount(1), "/shared", 4, Seconds(3)));
  tasks.Spawn(ReadLoop(sched, session.mount(0), "/shared", 150,
                       Milliseconds(100)));
  co_await tasks.Wait();
}

/// Builds a two-client polling testbed, runs the writer/reader workload with
/// metrics enabled, and returns the testbed for assertions.
std::unique_ptr<Testbed> RunObservedScenario() {
  auto bed = std::make_unique<Testbed>();
  bed->AddWanClient();
  bed->AddWanClient();
  bed->EnableMetrics(Milliseconds(500));

  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.poll_period = kPollPeriod;
  config.poll_max_period = kPollPeriod;
  kclient::MountOptions noac;
  noac.noac = true;
  auto& session = bed->CreateSession(config, {0, 1}, noac);

  RunTask(bed->sched(), WriterReaderWorkload(bed->sched(), session));
  RunTask(bed->sched(), session.Shutdown());
  bed->metrics_sampler()->Stop();
  bed->metrics_sampler()->SampleNow();
  return bed;
}

TEST(MetricsSampler, IdenticalRunsProduceByteIdenticalSeries) {
  const std::string first =
      metrics::TimeSeriesCsv(RunObservedScenario()->metrics_sampler()->series());
  const std::string second =
      metrics::TimeSeriesCsv(RunObservedScenario()->metrics_sampler()->series());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(StalenessProbe, BoundedByPollingPeriodPlusRoundTrips) {
  auto bed = RunObservedScenario();
  const auto& hist =
      bed->metrics_registry()->GetHistogram("s0.staleness_us").hist();
  ASSERT_GT(hist.count(), 0u);
  // A version born right after a poll is invalidated at most one period plus
  // one round trip later; the next read refreshes. Allow 2x RTT of slack for
  // the refresh itself (40 ms paper RTT).
  const Duration rtt = 2 * TestbedConfig{}.wan.one_way_latency;
  const auto bound_us =
      static_cast<std::uint64_t>((kPollPeriod + 2 * rtt) / kMicrosecond);
  EXPECT_GT(hist.max(), 0u);  // the workload does observe staleness
  EXPECT_LE(hist.Percentile(99), bound_us);
}

TEST(StalenessProbe, ZeroWithoutForeignWrites) {
  Testbed bed;
  bed.AddWanClient();
  bed.EnableMetrics(Milliseconds(500));

  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.poll_period = kPollPeriod;
  config.poll_max_period = kPollPeriod;
  kclient::MountOptions noac;
  noac.noac = true;
  auto& session = bed.CreateSession(config, {0}, noac);

  RunTask(bed.sched(),
          WriteLoop(bed.sched(), session.mount(0), "/own", 1, Milliseconds(1)));
  RunTask(bed.sched(),
          ReadLoop(bed.sched(), session.mount(0), "/own", 20, Milliseconds(100)));
  RunTask(bed.sched(), session.Shutdown());

  const auto& hist =
      bed.metrics_registry()->GetHistogram("s0.staleness_us").hist();
  ASSERT_GT(hist.count(), 0u);
  // Every read either hits the writer's own versions or fresh data: all
  // samples are 0.
  EXPECT_EQ(hist.max(), 0u);
}

// ---------------------------------------------------------------------------
// Counter contract
// ---------------------------------------------------------------------------

/// `<prefix><name>` for every row of a counter table.
template <typename Stats>
std::vector<std::string> RowNames(const std::string& prefix) {
  std::vector<std::string> names;
  for (const auto& field : Stats::Fields()) names.push_back(prefix + field.name);
  return names;
}

std::string HostTag(const Testbed& bed, int client) {
  return ".c" + std::to_string(bed.client_host(client)) + ".";
}

TEST(CounterTables, EveryRowReachesRegistryAndDump) {
  Testbed bed;
  bed.EnableDiagnosis();
  const int solo = bed.AddWanClient();
  const int member = bed.AddWanClient();
  SessionConfig adaptive;
  adaptive.adaptive = true;
  auto& session = bed.CreateSession(adaptive, {solo});
  FleetConfig tiered;
  tiered.aggregate = true;
  auto& fleet = bed.CreateFleetSession(tiered, {member});

  const std::string client = "s0" + HostTag(bed, solo);
  std::vector<std::string> expected = RowNames<proxy::ProxyServerStats>("s0.");
  for (const auto& rows :
       {RowNames<proxy::ProxyClientStats>(client),
        RowNames<policy::PolicyStats>(client + "policy_"),
        RowNames<fleet::InvAggregatorStats>("f0.agg.")}) {
    expected.insert(expected.end(), rows.begin(), rows.end());
  }

  JsonParser parser;
  const JsonValue dump = parser.Parse(bed.recorder()->Render("contract"));
  ASSERT_TRUE(parser.ok()) << parser.error();
  for (const std::string& name : expected) {
    EXPECT_EQ(bed.metrics_registry()->probes().count(name), 1u) << name;
    EXPECT_TRUE(dump["metrics"]["probes"].Has(name)) << name;
  }

  RunTask(bed.sched(), session.Shutdown());
  RunTask(bed.sched(), fleet.Shutdown());
}

TEST(CounterTables, SessionsFollowTheNameContract) {
  Testbed bed;
  bed.EnableMetrics();
  std::vector<int> clients;
  for (int i = 0; i < 3; ++i) clients.push_back(bed.AddWanClient());
  auto& first = bed.CreateSession(SessionConfig{}, {clients[0]});
  auto& second = bed.CreateSession(SessionConfig{}, {clients[1]});
  FleetConfig sharded;
  sharded.shards = 2;
  sharded.aggregate = true;
  auto& fleet = bed.CreateFleetSession(sharded, {clients[2]});

  const metrics::Registry& registry = *bed.metrics_registry();
  auto expect_names = [&](const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      EXPECT_EQ(registry.probes().count(name), 1u) << name;
    }
  };
  // A CreateSession session is a 1-shard fleet that keeps the classic names:
  // its server registers directly under s<N>., never as s<N>.s0.
  for (int s = 0; s < 2; ++s) {
    const std::string tag = "s" + std::to_string(s);
    EXPECT_EQ(registry.histograms().count(tag + ".staleness_us"), 1u) << tag;
    expect_names({tag + ".rpc_in_flight"});
    expect_names(RowNames<proxy::ProxyServerStats>(tag + "."));
    expect_names(
        RowNames<proxy::ProxyClientStats>(tag + HostTag(bed, clients[s])));
    EXPECT_EQ(registry.probes().count(tag + ".s0.forwarded"), 0u) << tag;
  }
  EXPECT_EQ(registry.histograms().count("f0.staleness_us"), 1u);
  expect_names({"f0.rpc_in_flight"});
  expect_names(RowNames<proxy::ProxyServerStats>("f0.s0."));
  expect_names(RowNames<proxy::ProxyServerStats>("f0.s1."));
  expect_names(RowNames<fleet::InvAggregatorStats>("f0.agg."));
  expect_names(RowNames<proxy::ProxyClientStats>("f0" + HostTag(bed, clients[2])));

  RunTask(bed.sched(), first.Shutdown());
  RunTask(bed.sched(), second.Shutdown());
  RunTask(bed.sched(), fleet.Shutdown());
}

}  // namespace
}  // namespace gvfs::workloads
