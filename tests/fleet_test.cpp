// Fleet-scale serving tests: shard routing, cross-shard NOTIFYINV
// forwarding, the GETINV aggregation tier's fan-out, and the overflow /
// escalation paths (whole-cache invalidation) both direct and through the
// tier. Positive scenarios double as TraceChecker runs over their full
// event history; the fault-injection suite proves the checker actually
// catches a lost or duplicated invalidation crossing the tier.
#include <gtest/gtest.h>

#include "common/json_value.h"
#include "fleet/inv_aggregator.h"
#include "fleet/shard_router.h"
#include "test_util.h"
#include "trace_oracle.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::OpenFlags;
using testutil::RunTask;

constexpr OpenFlags kRead{};
constexpr OpenFlags kReadWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

std::vector<net::Address> FakeShards(std::uint32_t n) {
  std::vector<net::Address> shards;
  for (std::uint32_t k = 0; k < n; ++k) {
    shards.push_back(net::Address{1, 5000 + k});
  }
  return shards;
}

TEST(ShardRouterTest, RoutingIsDeterministicAndInRange) {
  const fleet::ShardRouter router(FakeShards(4));
  for (std::uint64_t ino = 1; ino < 200; ++ino) {
    const nfs3::Fh fh{7, ino};
    const std::uint32_t index = router.IndexOf(fh);
    EXPECT_LT(index, 4u);
    EXPECT_EQ(index, router.IndexOf(fh));  // stable across calls
    EXPECT_EQ(router.AddressOf(fh).port, router.shards()[index].port);
    EXPECT_EQ(index, proxy::ShardOf(fh, 4));  // same map as the servers
  }
}

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  const fleet::ShardRouter router(FakeShards(1));
  for (std::uint64_t ino = 1; ino < 50; ++ino) {
    EXPECT_EQ(router.IndexOf(nfs3::Fh{7, ino}), 0u);
  }
}

TEST(ShardRouterTest, DegenerateRoutersOwnEverything) {
  // A fleet of one (and the empty default) must collapse to the unsharded
  // map: index 0 for every handle, the whole probe space on one shard.
  const fleet::ShardRouter empty;
  EXPECT_EQ(empty.shard_count(), 0u);
  EXPECT_EQ(empty.IndexOf(nfs3::Fh{7, 123}), 0u);

  const fleet::ShardRouter single(FakeShards(1));
  for (std::uint64_t ino = 1; ino < 50; ++ino) {
    EXPECT_EQ(single.AddressOf(nfs3::Fh{7, ino}).port, 5000u);
  }
  const auto histogram = single.BalanceHistogram(7, 256);
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram[0], 256u);
}

TEST(ShardRouterTest, HandlesSpreadAcrossShards) {
  const fleet::ShardRouter router(FakeShards(4));
  const auto histogram = router.BalanceHistogram(7, 4096);
  ASSERT_EQ(histogram.size(), 4u);
  for (std::size_t count : histogram) {
    // Every shard owns a meaningful slice: no empty shard, no shard with
    // more than half the handle space.
    EXPECT_GT(count, 512u);
    EXPECT_LT(count, 2048u);
  }
}

// ---------------------------------------------------------------------------
// Fleet sessions (positive scenarios; trace-checked via TearDown)
// ---------------------------------------------------------------------------

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() { bed_.EnableTracing(1 << 18); }

  void TearDown() override { testutil::ExpectTraceClean(bed_); }

  std::vector<int> AddClients(int n) {
    std::vector<int> ids;
    for (int i = 0; i < n; ++i) ids.push_back(bed_.AddWanClient());
    return ids;
  }

  static FleetConfig MakeConfig(std::uint32_t shards, bool aggregate,
                                Duration period = Seconds(10)) {
    FleetConfig config;
    config.shards = shards;
    config.aggregate = aggregate;
    config.session.model = proxy::ConsistencyModel::kInvalidationPolling;
    config.session.poll_period = period;
    config.session.poll_max_period = period;  // fixed cadence, no back-off
    config.aggregator.poll_period = period;
    return config;
  }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  /// Creates `files` distinct files through `mount` and writes one block to
  /// each (each write lands an invalidation on the owning shard).
  void DirtyFiles(kclient::KernelClient& mount, int files,
                  const std::string& stem = "f") {
    for (int f = 0; f < files; ++f) {
      auto fd = RunTask(bed_.sched(),
                        mount.Open("/" + stem + std::to_string(f), kCreateWrite));
      ASSERT_TRUE(fd.has_value());
      (void)RunTask(bed_.sched(), mount.Write(*fd, 0, Bytes(64, 1)));
      (void)RunTask(bed_.sched(), mount.Close(*fd));
    }
  }

  Testbed bed_;
};

TEST_F(FleetTest, CrossShardNotifyInvReachesTheOwner) {
  auto& session =
      bed_.CreateFleetSession(MakeConfig(4, /*aggregate=*/false), AddClients(2),
                              /*active_mounts=*/2);
  auto& a = session.mount(0);

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));  // both proxies registered
  DirtyFiles(a, 6);
  // RENAME mutates the directory plus both name slots: with 4 shards the
  // handling shard regularly does not own every touched handle and must
  // forward with NOTIFYINV.
  for (int f = 0; f < 3; ++f) {
    auto renamed = RunTask(
        bed_.sched(),
        a.Rename("/f" + std::to_string(f), "/r" + std::to_string(f)));
    ASSERT_TRUE(renamed.has_value());
  }
  (void)RunTask(bed_.sched(), Advance(Seconds(25)));

  std::uint64_t sent = 0, received = 0, recorded = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    sent += session.shard(k).stats().notifyinv_sent;
    received += session.shard(k).stats().notifyinv_received;
    recorded += session.shard(k).stats().invalidations_recorded;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sent, received);  // nothing forwarded into the void
  EXPECT_GT(recorded, 0u);
  // The peer actually observed the churn through its per-shard polls.
  EXPECT_GT(session.proxy(1).stats().invalidations_applied, 0u);
}

TEST_F(FleetTest, AggregatorCollapsesGetInvFanIn) {
  auto& session = bed_.CreateFleetSession(MakeConfig(1, /*aggregate=*/true),
                                          AddClients(8), /*active_mounts=*/1);
  auto& writer = session.mount(0);

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));  // fleet registered
  DirtyFiles(writer, 5);
  (void)RunTask(bed_.sched(), Advance(Seconds(45)));

  const fleet::InvAggregatorStats& agg = session.aggregator->stats();
  EXPECT_EQ(session.aggregator->DownstreamClients(), 8u);
  EXPECT_GT(agg.handles_ingested, 0u);
  EXPECT_GT(agg.handles_delivered, 0u);
  // The tier's whole point: 8 clients' polls collapse into one upstream
  // stream, so the shard serves a small constant rate while the aggregator
  // absorbs the fan-in.
  EXPECT_EQ(session.shard(0).stats().getinv_served, agg.upstream_polls);
  EXPECT_GT(agg.getinv_served, 3 * agg.upstream_polls);
  // A passive client behind the tier still sees the writer's churn.
  EXPECT_GT(session.proxy(1).stats().invalidations_applied +
                session.proxy(1).stats().force_invalidations,
            0u);
}

TEST_F(FleetTest, RemoteChangeVisibleThroughTier) {
  auto& session = bed_.CreateFleetSession(MakeConfig(1, /*aggregate=*/true),
                                          AddClients(2), /*active_mounts=*/2);
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  auto fd = RunTask(bed_.sched(), a.Open("/data", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(10, 1)));
  (void)RunTask(bed_.sched(), a.Close(*fd));

  auto fd_b = RunTask(bed_.sched(), b.Open("/data", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto first = RunTask(bed_.sched(), b.Read(*fd_b, 0, 10));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 1);

  (void)RunTask(bed_.sched(), Advance(Seconds(31)));  // kernel cache expired
  auto fd2 = RunTask(bed_.sched(), a.Open("/data", kReadWrite));
  ASSERT_TRUE(fd2.has_value());
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(10, 2)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));

  // Two hops now sit between the write and b's cache (shard -> aggregator
  // -> client), each on a 10 s period; 35 s covers both with slack.
  (void)RunTask(bed_.sched(), Advance(Seconds(35)));
  auto second = RunTask(bed_.sched(), b.Read(*fd_b, 0, 10));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 2);
}

TEST_F(FleetTest, OverflowForcesWholeCacheInvalidationDirect) {
  FleetConfig config = MakeConfig(1, /*aggregate=*/false);
  config.session.inv_buffer_capacity = 4;
  auto& session =
      bed_.CreateFleetSession(config, AddClients(10), /*active_mounts=*/1);
  auto& writer = session.mount(0);

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));  // everyone registered
  DirtyFiles(writer, 12);  // 12 distinct handles >> capacity 4
  (void)RunTask(bed_.sched(), Advance(Seconds(25)));

  // Each of the 9 non-writer clients overflows once: its stream breaks and
  // it gets no further appends until its forced poll, as in the tier.
  EXPECT_EQ(session.shard(0).stats().inv_wraps, 9u);
  EXPECT_GT(session.shard(0).stats().force_invalidations, 0u);
  std::uint64_t client_forces = 0;
  for (std::size_t i = 0; i < session.proxies.size(); ++i) {
    client_forces += session.proxy(i).stats().force_invalidations;
  }
  EXPECT_GT(client_forces, 0u);
}

TEST_F(FleetTest, OverflowEscalatesThroughTier) {
  FleetConfig config = MakeConfig(1, /*aggregate=*/true);
  config.aggregator.inv_buffer_capacity = 4;  // tier buffers, not the shard's
  auto& session =
      bed_.CreateFleetSession(config, AddClients(6), /*active_mounts=*/1);
  auto& writer = session.mount(0);

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));
  DirtyFiles(writer, 12);
  (void)RunTask(bed_.sched(), Advance(Seconds(25)));

  const fleet::InvAggregatorStats& agg = session.aggregator->stats();
  // The tier's own buffers wrapped and it escalated: affected clients were
  // served a whole-cache invalidation, not a truncated handle list.
  EXPECT_GT(agg.inv_wraps, 0u);
  EXPECT_GT(agg.force_invalidations, 0u);
  std::uint64_t client_forces = 0;
  for (std::size_t i = 0; i < session.proxies.size(); ++i) {
    client_forces += session.proxy(i).stats().force_invalidations;
  }
  EXPECT_GT(client_forces, 0u);
}

TEST_F(FleetTest, DumpShowsBrokenTierStreams) {
  bed_.EnableDiagnosis();
  FleetConfig config = MakeConfig(1, /*aggregate=*/true);
  config.aggregator.inv_buffer_capacity = 4;
  config.aggregator.poll_period = Seconds(7);  // off the clients' 10 s phase
  auto& session =
      bed_.CreateFleetSession(config, AddClients(6), /*active_mounts=*/1);

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));
  DirtyFiles(session.mount(0), 12);

  // The tier's next ingest overflows every downstream stream, and each stays
  // broken until that client's own next poll: a dump taken in between must
  // show it in the tier's state.
  std::size_t broken = 0;
  for (int step = 0; step < 60 && broken == 0; ++step) {
    (void)RunTask(bed_.sched(), Advance(Milliseconds(500)));
    JsonParser parser;
    const JsonValue dump = parser.Parse(bed_.recorder()->Render("fleet test"));
    ASSERT_TRUE(parser.ok()) << parser.error();
    const JsonValue& tier = dump["state"]["f0.agg"];
    ASSERT_EQ(tier["role"].AsString(), "inv_aggregator");
    const JsonValue& cursors = tier["inv_log"]["cursors"];
    ASSERT_EQ(cursors.size(), 6u);
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i]["broken"].AsBool()) ++broken;
    }
  }
  EXPECT_GT(broken, 0u);
  EXPECT_GT(session.aggregator->stats().inv_wraps, 0u);
}

TEST_F(FleetTest, UpstreamForceEscalatesThroughTier) {
  FleetConfig config = MakeConfig(1, /*aggregate=*/true);
  config.session.inv_buffer_capacity = 4;  // the SHARD's buffer wraps
  auto& session =
      bed_.CreateFleetSession(config, AddClients(4), /*active_mounts=*/1);
  auto& writer = session.mount(0);

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));
  DirtyFiles(writer, 12);
  (void)RunTask(bed_.sched(), Advance(Seconds(25)));

  // The shard force-invalidated its one GETINV client — the aggregator —
  // which must not absorb the loss: every downstream client's stream breaks
  // and is re-bootstrapped with a whole-cache invalidation.
  const fleet::InvAggregatorStats& agg = session.aggregator->stats();
  EXPECT_GT(agg.upstream_forces, 0u);
  EXPECT_GT(agg.force_invalidations, 0u);
  std::uint64_t client_forces = 0;
  for (std::size_t i = 0; i < session.proxies.size(); ++i) {
    client_forces += session.proxy(i).stats().force_invalidations;
  }
  EXPECT_GT(client_forces, 0u);
}

// ---------------------------------------------------------------------------
// Degenerate fleet: shards=1, no tier. The fleet machinery must add no
// observable behavior over the plain unsharded session.
// ---------------------------------------------------------------------------

struct ChurnResult {
  std::vector<std::uint8_t> first_bytes;
  std::uint64_t applied = 0;
};

sim::Task<void> SleepFor(sim::Scheduler& sched, Duration d) {
  co_await sim::Sleep(sched, d);
}

/// Writer dirties three files, the poll period and kernel attr cache expire,
/// the reader reads them back; returns what the reader saw. Works on both
/// session flavors (mount()/proxy() are the shared surface).
template <typename SessionT>
ChurnResult RunChurn(Testbed& bed, SessionT& session) {
  auto& writer = session.mount(0);
  auto& reader = session.mount(1);
  (void)RunTask(bed.sched(), SleepFor(bed.sched(), Seconds(15)));
  for (int f = 0; f < 3; ++f) {
    auto fd = RunTask(bed.sched(),
                      writer.Open("/d" + std::to_string(f), kCreateWrite));
    EXPECT_TRUE(fd.has_value());
    (void)RunTask(
        bed.sched(),
        writer.Write(*fd, 0, Bytes(64, static_cast<std::uint8_t>(f + 1))));
    (void)RunTask(bed.sched(), writer.Close(*fd));
  }
  (void)RunTask(bed.sched(), SleepFor(bed.sched(), Seconds(35)));
  ChurnResult out;
  for (int f = 0; f < 3; ++f) {
    auto fd =
        RunTask(bed.sched(), reader.Open("/d" + std::to_string(f), kRead));
    EXPECT_TRUE(fd.has_value());
    auto data = RunTask(bed.sched(), reader.Read(*fd, 0, 64));
    EXPECT_TRUE(data.has_value());
    if (data.has_value() && !data->empty()) {
      out.first_bytes.push_back((*data)[0]);
    }
    (void)RunTask(bed.sched(), reader.Close(*fd));
  }
  out.applied = session.proxy(1).stats().invalidations_applied;
  (void)RunTask(bed.sched(), session.Shutdown());
  return out;
}

TEST_F(FleetTest, SingleShardFleetMatchesUnshardedSession) {
  auto& fleet = bed_.CreateFleetSession(MakeConfig(1, /*aggregate=*/false),
                                        AddClients(2), /*active_mounts=*/2);
  const ChurnResult sharded = RunChurn(bed_, fleet);

  Testbed solo;
  solo.EnableTracing(1 << 18);
  solo.AddWanClient();
  solo.AddWanClient();
  auto& plain = solo.CreateSession(MakeConfig(1, false).session, {0, 1});
  const ChurnResult unsharded = RunChurn(solo, plain);

  // shards=1 routes every handle to shard 0 and never forwards.
  EXPECT_EQ(fleet.shard(0).stats().notifyinv_sent, 0u);
  EXPECT_EQ(fleet.shard(0).stats().notifyinv_received, 0u);
  // The reader observes identical bytes and the same invalidation stream.
  EXPECT_EQ(sharded.first_bytes, unsharded.first_bytes);
  EXPECT_EQ(sharded.applied, unsharded.applied);
  testutil::ExpectTraceClean(solo);
}

// ---------------------------------------------------------------------------
// Fault injection: the kAggTier invariant must catch a tier that lies.
// (No clean-trace TearDown here — violations are the expected outcome.)
// ---------------------------------------------------------------------------

class FleetFaultTest : public ::testing::Test {
 protected:
  FleetFaultTest() { bed_.EnableTracing(1 << 18); }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  std::vector<trace::Violation> RunInjected(bool drop, bool duplicate) {
    FleetConfig config;
    config.shards = 1;
    config.aggregate = true;
    config.session.model = proxy::ConsistencyModel::kInvalidationPolling;
    config.session.poll_period = Seconds(10);
    config.session.poll_max_period = Seconds(10);
    config.aggregator.poll_period = Seconds(10);
    bed_.InjectFaults({.drop_fanout = drop, .duplicate_fanout = duplicate});

    std::vector<int> members;
    for (int i = 0; i < 3; ++i) members.push_back(bed_.AddWanClient());
    auto& session = bed_.CreateFleetSession(config, members,
                                            /*active_mounts=*/1);
    auto& writer = session.mount(0);

    (void)RunTask(bed_.sched(), Advance(Seconds(15)));
    for (int f = 0; f < 4; ++f) {
      auto fd = RunTask(bed_.sched(),
                        writer.Open("/f" + std::to_string(f), kCreateWrite));
      EXPECT_TRUE(fd.has_value());
      (void)RunTask(bed_.sched(), writer.Write(*fd, 0, Bytes(64, 1)));
      (void)RunTask(bed_.sched(), writer.Close(*fd));
    }
    (void)RunTask(bed_.sched(), Advance(Seconds(25)));

    EXPECT_EQ(bed_.trace_buffer()->dropped(), 0u);
    return trace::TraceChecker(proxy::NfsTraceCheckerConfig())
        .Check(*bed_.trace_buffer());
  }

  Testbed bed_;
};

TEST_F(FleetFaultTest, DroppedFanoutIsCaught) {
  const auto violations = RunInjected(/*drop=*/true, /*duplicate=*/false);
  EXPECT_FALSE(violations.empty())
      << "a fan-out silently skipped a registered client and the checker "
         "did not notice";
}

TEST_F(FleetFaultTest, DuplicatedFanoutIsCaught) {
  const auto violations = RunInjected(/*drop=*/false, /*duplicate=*/true);
  EXPECT_FALSE(violations.empty())
      << "a handle was fanned out twice to one client and the checker did "
         "not notice";
}

}  // namespace
}  // namespace gvfs::workloads
