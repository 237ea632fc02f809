// Adaptive consistency engine tests (src/policy + the MIGRATE handshake in
// src/gvfs). The unit half exercises the FSM in isolation: promotion needs
// two agreeing windows, demotion under contention, the dwell pin, and the
// recall-storm breaker (promotions freeze, demotions keep running). The
// integration half runs adaptive sessions on the testbed — single-server and
// sharded fleet — and checks that migrations actually happen, route through
// the owning shard, and leave a TraceChecker-clean history, and that
// enabling metrics leaves every policy decision unchanged; the fault half
// proves invariant 6 (version-continuous migration) bites when the server's
// drain step is skipped.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "policy/policy.h"
#include "test_util.h"
#include "trace_oracle.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::OpenFlags;
using policy::AccessClass;
using policy::FileId;
using policy::FileMode;
using policy::PolicyEngine;
using proxy::ConsistencyModel;
using proxy::SessionConfig;
using testutil::RunTask;

constexpr OpenFlags kRead{.read = true};
constexpr OpenFlags kReadWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

// ---------------------------------------------------------------------------
// PolicyEngine unit tests (no testbed; the FSM is transport-free)
// ---------------------------------------------------------------------------

policy::PolicyConfig UnitConfig() {
  policy::PolicyConfig config;
  config.dwell = Seconds(10);
  config.promote_reads = 4;
  config.write_hot = 3;
  config.storm_recalls = 8;
  config.storm_freeze = Seconds(30);
  return config;
}

void HotReads(PolicyEngine& engine, const FileId& file, int n = 5) {
  for (int i = 0; i < n; ++i) engine.OnRead(file);
}

TEST(PolicyEngine, PromotionNeedsTwoAgreeingWindows) {
  PolicyEngine engine(UnitConfig());
  const FileId file{1, 42};

  HotReads(engine, file);
  EXPECT_EQ(engine.ClassifyOpenWindow(file), AccessClass::kReadShared);
  // First hot window only arms hysteresis: no proposal yet.
  EXPECT_TRUE(engine.Tick(Seconds(5)).empty());

  HotReads(engine, file);
  const auto migrations = engine.Tick(Seconds(10));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].file, file);
  EXPECT_EQ(migrations[0].from, FileMode::kPolling);
  EXPECT_EQ(migrations[0].to, FileMode::kReadDelegation);

  engine.Commit(file, FileMode::kReadDelegation, Seconds(10));
  EXPECT_EQ(engine.ModeOf(file), FileMode::kReadDelegation);
  EXPECT_EQ(engine.promotions(), 1u);
  EXPECT_EQ(engine.demotions(), 0u);
}

TEST(PolicyEngine, OneBurstyWindowCannotFlipAFile) {
  PolicyEngine engine(UnitConfig());
  const FileId file{1, 42};

  HotReads(engine, file);
  EXPECT_TRUE(engine.Tick(Seconds(5)).empty());
  // Idle window in between: the target falls back to "hold" and hysteresis
  // disarms...
  EXPECT_TRUE(engine.Tick(Seconds(10)).empty());
  // ...so a fresh burst has to agree across two windows again.
  HotReads(engine, file);
  EXPECT_TRUE(engine.Tick(Seconds(15)).empty());
  EXPECT_EQ(engine.ModeOf(file), FileMode::kPolling);
}

TEST(PolicyEngine, ContentionDemotesAfterDwell) {
  PolicyEngine engine(UnitConfig());
  const FileId file{1, 7};
  HotReads(engine, file);
  engine.Tick(Seconds(5));
  HotReads(engine, file);
  ASSERT_EQ(engine.Tick(Seconds(10)).size(), 1u);
  engine.Commit(file, FileMode::kReadDelegation, Seconds(10));

  // Write-write sharing: we write while remote writes land as invalidations.
  auto contend = [&engine, &file] {
    engine.OnWrite(file);
    engine.OnInvalidation(file);
  };
  contend();
  EXPECT_EQ(engine.ClassifyOpenWindow(file), AccessClass::kContended);
  // Window 1 re-arms hysteresis towards polling (Commit reset it).
  EXPECT_TRUE(engine.Tick(Seconds(12)).empty());
  contend();
  // Window 2 agrees but the file migrated at t=10 and dwell is 10 s: pinned.
  EXPECT_TRUE(engine.Tick(Seconds(14)).empty());
  contend();
  const auto migrations = engine.Tick(Seconds(21));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].to, FileMode::kPolling);
  engine.Commit(file, FileMode::kPolling, Seconds(21));
  EXPECT_EQ(engine.demotions(), 1u);
}

TEST(PolicyEngine, WriteDelegationGatedBySessionCacheMode) {
  // Write-back sessions: a steady single writer earns a write delegation.
  PolicyEngine wb(UnitConfig());
  const FileId file{1, 9};
  for (int i = 0; i < 4; ++i) wb.OnWrite(file);
  EXPECT_EQ(wb.ClassifyOpenWindow(file), AccessClass::kWriteHot);
  wb.Tick(Seconds(5));
  for (int i = 0; i < 4; ++i) wb.OnWrite(file);
  const auto migrations = wb.Tick(Seconds(10));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].to, FileMode::kWriteDelegation);

  // Write-through sessions clear the knob: same pattern, no proposal — a
  // write grant would only add recall traffic with nothing absorbed locally.
  policy::PolicyConfig config = UnitConfig();
  config.write_delegation = false;
  PolicyEngine wt(config);
  for (int i = 0; i < 4; ++i) wt.OnWrite(file);
  wt.Tick(Seconds(5));
  for (int i = 0; i < 4; ++i) wt.OnWrite(file);
  EXPECT_TRUE(wt.Tick(Seconds(10)).empty());
}

TEST(PolicyEngine, RecallStormFreezesPromotionsNotDemotions) {
  PolicyEngine engine(UnitConfig());
  const FileId held{1, 1};    // already delegated when the storm hits
  const FileId hungry{1, 2};  // wants a promotion during the storm
  const FileId noisy{1, 3};   // the recall source

  HotReads(engine, held);
  engine.Tick(Seconds(5));
  HotReads(engine, held);
  ASSERT_EQ(engine.Tick(Seconds(10)).size(), 1u);
  engine.Commit(held, FileMode::kReadDelegation, Seconds(10));

  // 8 recalls inside one window trip the breaker (no registry attached, so
  // the breaker counts locally observed recalls).
  for (int i = 0; i < 8; ++i) engine.OnRecall(noisy);
  engine.OnWrite(held);
  engine.OnInvalidation(held);
  EXPECT_TRUE(engine.Tick(Seconds(15)).empty());
  EXPECT_TRUE(engine.frozen());
  EXPECT_EQ(engine.storm_freezes(), 1u);

  // While frozen: the demotion of `held` still goes through...
  engine.OnWrite(held);
  engine.OnInvalidation(held);
  HotReads(engine, hungry);
  auto migrations = engine.Tick(Seconds(25));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].file, held);
  EXPECT_EQ(migrations[0].to, FileMode::kPolling);
  engine.Commit(held, FileMode::kPolling, Seconds(25));

  // ...but `hungry`'s promotion is suppressed for the freeze duration.
  HotReads(engine, hungry);
  EXPECT_TRUE(engine.Tick(Seconds(30)).empty());
  EXPECT_GE(engine.promotions_frozen(), 1u);

  // Freeze expires at t=45 (tripped at 15 + 30 s): promotions resume.
  HotReads(engine, hungry);
  engine.Tick(Seconds(46));
  HotReads(engine, hungry);
  migrations = engine.Tick(Seconds(51));
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].file, hungry);
  EXPECT_EQ(migrations[0].to, FileMode::kReadDelegation);
  EXPECT_FALSE(engine.frozen());
}

// ---------------------------------------------------------------------------
// Integration: adaptive sessions on the testbed
// ---------------------------------------------------------------------------

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() { bed_.EnableTracing(1 << 18); }

  void TearDown() override { testutil::ExpectTraceClean(bed_); }

  static SessionConfig AdaptiveConfig() {
    SessionConfig config;
    config.model = ConsistencyModel::kInvalidationPolling;
    config.adaptive = true;
    config.poll_period = Seconds(10);
    config.poll_max_period = Seconds(10);
    config.policy_period = Seconds(5);
    config.policy_dwell = Seconds(10);
    return config;
  }

  /// Every application read must reach the proxy for the engine to see it.
  static kclient::MountOptions Observable() {
    kclient::MountOptions options;
    options.noac = true;
    options.max_cached_bytes = 0;
    return options;
  }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  template <typename SessionT>
  void Seed(SessionT& session, const std::string& path) {
    auto fd = RunTask(bed_.sched(), session.mount(0).Open(path, kCreateWrite));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(),
                  session.mount(0).Write(*fd, 0, Bytes(64, 1)));
    (void)RunTask(bed_.sched(), session.mount(0).Close(*fd));
  }

  template <typename SessionT>
  void ReadOnce(SessionT& session, std::size_t client,
                const std::string& path) {
    auto fd = RunTask(bed_.sched(), session.mount(client).Open(path, kRead));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(), session.mount(client).Read(*fd, 0, 64));
    (void)RunTask(bed_.sched(), session.mount(client).Close(*fd));
  }

  template <typename SessionT>
  void WriteOnce(SessionT& session, std::size_t client,
                 const std::string& path, std::uint8_t fill) {
    auto fd =
        RunTask(bed_.sched(), session.mount(client).Open(path, kReadWrite));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(),
                  session.mount(client).Write(*fd, 0, Bytes(64, fill)));
    (void)RunTask(bed_.sched(), session.mount(client).Close(*fd));
  }

  Testbed bed_;
};

TEST_F(PolicyTest, HotReaderPromotesThenContentionDemotes) {
  bed_.AddWanClient();
  bed_.AddWanClient();
  auto& session = bed_.CreateSession(AdaptiveConfig(), {0, 1}, Observable());

  Seed(session, "/hot");
  // Phase A: client 1 reads every second for 12 s — two agreeing policy
  // windows promote /hot to a read delegation.
  for (int i = 0; i < 12; ++i) {
    ReadOnce(session, 1, "/hot");
    (void)RunTask(bed_.sched(), Advance(Seconds(1)));
  }
  EXPECT_GT(session.proxy(1).policy()->promotions(), 0u);
  EXPECT_GT(session.proxy(1).stats().migrations, 0u);
  EXPECT_GT(session.server->stats().migrations_served, 0u);

  // Phase B: both clients write the same file — write-write sharing demotes
  // it back to polling once the dwell expires.
  for (int i = 0; i < 14; ++i) {
    WriteOnce(session, 0, "/hot", 2);
    ReadOnce(session, 1, "/hot");
    WriteOnce(session, 1, "/hot", 3);
    (void)RunTask(bed_.sched(), Advance(Seconds(1)));
  }
  (void)RunTask(bed_.sched(), Advance(Seconds(12)));
  EXPECT_GT(session.proxy(1).policy()->demotions(), 0u);

  RunTask(bed_.sched(), session.Shutdown());
}

TEST_F(PolicyTest, MigrationRoutesThroughOwningShard) {
  FleetConfig config;
  config.shards = 2;
  config.aggregate = false;
  config.session = AdaptiveConfig();
  std::vector<int> clients{bed_.AddWanClient(), bed_.AddWanClient()};
  auto& session = bed_.CreateFleetSession(config, clients,
                                          /*active_mounts=*/2, Observable());

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));  // fleet registered
  // Six distinct files spread across the two shards' handle slices.
  for (int f = 0; f < 6; ++f) Seed(session, "/f" + std::to_string(f));
  for (int i = 0; i < 12; ++i) {
    for (int f = 0; f < 6; ++f) {
      ReadOnce(session, 1, "/f" + std::to_string(f));
    }
    (void)RunTask(bed_.sched(), Advance(Seconds(1)));
  }

  // Every MIGRATE the client performed was served by the file's owning
  // shard; with six files both slices see traffic.
  std::uint64_t served = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    served += session.shard(k).stats().migrations_served;
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(served, session.proxy(1).stats().migrations);
  EXPECT_GT(session.proxy(1).policy()->promotions(), 0u);

  RunTask(bed_.sched(), session.Shutdown());
}

// ---------------------------------------------------------------------------
// The observatory only reads: turning metrics on must not move a decision.
// ---------------------------------------------------------------------------

sim::Task<void> SleepFor(sim::Scheduler& sched, Duration d) {
  co_await sim::Sleep(sched, d);
}

/// One writer and two readers share /hot on an adaptive session. Both
/// readers earn read delegations, so every write recalls two grants: each
/// reader sees 5 recalls per 5 s policy window, the server 10, and the storm
/// breaker threshold (8) lies between. Returns the server's recall count and
/// the policy counters summed over all clients (decisions, promotions,
/// demotions, frozen promotions, storm freezes).
std::vector<std::uint64_t> SharedFilePolicyCounters(bool metrics) {
  Testbed bed;
  if (metrics) bed.EnableMetrics();
  for (int i = 0; i < 3; ++i) bed.AddWanClient();
  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.adaptive = true;
  config.poll_period = Seconds(10);
  config.poll_max_period = Seconds(10);
  config.policy_period = Seconds(5);
  config.policy_dwell = Seconds(10);
  config.policy_storm_recalls = 8;
  kclient::MountOptions observable;
  observable.noac = true;
  observable.max_cached_bytes = 0;
  auto& session = bed.CreateSession(config, {0, 1, 2}, observable);

  auto access = [&](std::size_t client, OpenFlags flags, bool write) {
    kclient::KernelClient& mount = session.mount(client);
    auto fd = RunTask(bed.sched(), mount.Open("/hot", flags));
    EXPECT_TRUE(fd.has_value());
    if (!fd.has_value()) return;
    if (write) {
      (void)RunTask(bed.sched(), mount.Write(*fd, 0, Bytes(64, 2)));
    } else {
      (void)RunTask(bed.sched(), mount.Read(*fd, 0, 64));
    }
    (void)RunTask(bed.sched(), mount.Close(*fd));
  };

  access(0, kCreateWrite, /*write=*/true);
  for (int i = 0; i < 40; ++i) {
    access(0, kReadWrite, /*write=*/true);
    access(1, kRead, /*write=*/false);
    access(2, kRead, /*write=*/false);
    RunTask(bed.sched(), SleepFor(bed.sched(), Seconds(1)));
  }
  RunTask(bed.sched(), session.Shutdown());

  const proxy::ProxyServerStats& server = session.server->stats();
  std::vector<std::uint64_t> counters{server.recalls_read + server.recalls_write,
                                      0, 0, 0, 0, 0};
  for (proxy::ProxyClient* proxy : session.proxies) {
    const PolicyEngine& engine = *proxy->policy();
    counters[1] += engine.decisions();
    counters[2] += engine.promotions();
    counters[3] += engine.demotions();
    counters[4] += engine.promotions_frozen();
    counters[5] += engine.storm_freezes();
  }
  return counters;
}

TEST(PolicyObservatoryTest, MetricsDoNotChangePolicyDecisions) {
  const std::vector<std::uint64_t> plain = SharedFilePolicyCounters(false);
  const std::vector<std::uint64_t> observed = SharedFilePolicyCounters(true);
  EXPECT_GT(plain[0], 0u) << "no delegation was ever recalled";
  EXPECT_GT(plain[2], 0u) << "no file was ever promoted";
  EXPECT_EQ(plain, observed);
}

// ---------------------------------------------------------------------------
// Fault injection: invariant 6 must catch a drain-skipping server.
// (No clean-trace TearDown — violations are the expected outcome.)
// ---------------------------------------------------------------------------

class PolicyFaultTest : public ::testing::Test {
 protected:
  PolicyFaultTest() { bed_.EnableTracing(1 << 18); }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  /// Promotes /hot on client 1, buffers invalidations for it (client 0
  /// writes while the poll period is far too long to drain them naturally),
  /// then forces a demotion. With `skip_drain` the server switches modes
  /// without delivering the buffered entries — exactly what invariant 6
  /// (version-continuous migration) exists to catch.
  std::vector<trace::Violation> RunScenario(bool skip_drain) {
    SessionConfig config;
    config.model = proxy::ConsistencyModel::kInvalidationPolling;
    config.adaptive = true;
    config.poll_period = Seconds(300);  // polling never beats the migration
    config.poll_max_period = Seconds(300);
    config.policy_period = Seconds(5);
    config.policy_dwell = Seconds(10);
    bed_.InjectFaults({.skip_drain = skip_drain});

    bed_.AddWanClient();
    bed_.AddWanClient();
    kclient::MountOptions observable;
    observable.noac = true;
    observable.max_cached_bytes = 0;
    auto& session = bed_.CreateSession(config, {0, 1}, observable);
    auto& writer = session.mount(0);
    auto& reader = session.mount(1);

    auto seed = RunTask(bed_.sched(), writer.Open("/hot", kCreateWrite));
    EXPECT_TRUE(seed.has_value());
    (void)RunTask(bed_.sched(), writer.Write(*seed, 0, Bytes(64, 1)));
    (void)RunTask(bed_.sched(), writer.Close(*seed));

    // Promote: reader hammers /hot until the engine migrates it.
    for (int i = 0; i < 12; ++i) {
      auto fd = RunTask(bed_.sched(), reader.Open("/hot", kRead));
      EXPECT_TRUE(fd.has_value());
      (void)RunTask(bed_.sched(), reader.Read(*fd, 0, 64));
      (void)RunTask(bed_.sched(), reader.Close(*fd));
      (void)RunTask(bed_.sched(), Advance(Seconds(1)));
    }

    // Contend: each round the writer mutates (appending an entry to the
    // reader's invalidation buffer and recalling its grant) and the reader
    // reads + writes (recall + local write -> contended -> demote).
    for (int i = 0; i < 14; ++i) {
      auto wfd = RunTask(bed_.sched(), writer.Open("/hot", kReadWrite));
      EXPECT_TRUE(wfd.has_value());
      (void)RunTask(bed_.sched(), writer.Write(*wfd, 0, Bytes(64, 2)));
      (void)RunTask(bed_.sched(), writer.Close(*wfd));

      auto rfd = RunTask(bed_.sched(), reader.Open("/hot", kReadWrite));
      EXPECT_TRUE(rfd.has_value());
      (void)RunTask(bed_.sched(), reader.Read(*rfd, 0, 64));
      (void)RunTask(bed_.sched(), reader.Write(*rfd, 0, Bytes(64, 3)));
      (void)RunTask(bed_.sched(), reader.Close(*rfd));
      (void)RunTask(bed_.sched(), Advance(Seconds(1)));
    }
    (void)RunTask(bed_.sched(), Advance(Seconds(12)));
    EXPECT_GT(session.proxy(1).policy()->demotions(), 0u);

    RunTask(bed_.sched(), session.Shutdown());
    EXPECT_EQ(bed_.trace_buffer()->dropped(), 0u);
    return trace::TraceChecker(proxy::NfsTraceCheckerConfig())
        .Check(*bed_.trace_buffer());
  }

  Testbed bed_;
};

TEST_F(PolicyFaultTest, DrainingMigrationIsVersionContinuous) {
  const auto violations = RunScenario(/*skip_drain=*/false);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violation(s), first: "
      << (violations.empty() ? "" : violations[0].detail);
}

TEST_F(PolicyFaultTest, SkippedDrainIsCaught) {
  const auto violations = RunScenario(/*skip_drain=*/true);
  ASSERT_FALSE(violations.empty())
      << "the server migrated a file with buffered invalidations undelivered "
         "and the checker did not notice";
  bool mentions_migration = false;
  for (const auto& v : violations) {
    if (v.detail.find("migrat") != std::string::npos) {
      mentions_migration = true;
    }
  }
  EXPECT_TRUE(mentions_migration) << violations[0].detail;
}

}  // namespace
}  // namespace gvfs::workloads
