// Failure-injection tests: network partitions, crashes mid-protocol, lost
// replies, and combined failures across the GVFS consistency machinery
// (§4.2.3 and §4.3.4 of the paper).
#include <gtest/gtest.h>

#include "test_util.h"
#include "trace_oracle.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::MountOptions;
using kclient::OpenFlags;
using nfs3::Status;
using proxy::CacheMode;
using proxy::ConsistencyModel;
using proxy::SessionConfig;
using testutil::RunTask;

constexpr OpenFlags kRead{};
constexpr OpenFlags kWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

SessionConfig Polling(Duration period) {
  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.poll_period = period;
  config.poll_max_period = period;
  return config;
}

SessionConfig Delegation() {
  SessionConfig config;
  config.model = ConsistencyModel::kDelegationCallback;
  config.cache_mode = CacheMode::kWriteBack;
  config.wb_flush_period = 0;
  return config;
}

MountOptions Noac() {
  MountOptions options;
  options.noac = true;
  return options;
}

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() {
    bed_.AddWanClient();
    bed_.AddWanClient();
    bed_.EnableTracing();
  }

  // Every failure scenario doubles as a protocol-invariant check over its
  // full event history (trace_oracle.h).
  void TearDown() override { testutil::ExpectTraceClean(bed_); }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  HostId Host(int i) { return bed_.client_host(i); }

  Testbed bed_;
};

TEST_F(FailureTest, PartitionHealsAndOperationsRetry) {
  // Hard-mount semantics: a request issued during a partition completes once
  // the partition heals (retransmission, §4.3.2 "requests can simply be
  // retried").
  auto& session = bed_.CreateSession(Polling(Seconds(30)), {0});
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());

  bed_.network().SetLinkUp(Host(0), bed_.server_host(), false);
  bed_.sched().At(bed_.sched().Now() + Seconds(5), [this] {
    bed_.network().SetLinkUp(Host(0), bed_.server_host(), true);
  });

  auto attr = RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  ASSERT_TRUE(attr.has_value());
  EXPECT_GE(bed_.sched().Now(), Seconds(5));  // had to wait out the partition
}

TEST_F(FailureTest, PollingSurvivesPartitionWithForceInvalidate) {
  // Wrap-around during a partition (§4.2.3): when the client reconnects, the
  // server detects the overflowed buffer and forces full invalidation.
  SessionConfig config = Polling(Seconds(10));
  config.inv_buffer_capacity = 4;
  auto& session = bed_.CreateSession(config, {0, 1});
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // b caches some files and registers with the server.
  for (int i = 0; i < 3; ++i) {
    auto ino = bed_.fs().Create(bed_.fs().root(), "f" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.has_value());
    (void)RunTask(bed_.sched(), b.Stat("/f" + std::to_string(i)));
  }
  (void)RunTask(bed_.sched(), Advance(Seconds(15)));

  // Partition b; meanwhile a dirties more files than b's buffer holds.
  bed_.network().SetLinkUp(Host(1), bed_.server_host(), false);
  for (int i = 0; i < 8; ++i) {
    auto fd = RunTask(bed_.sched(),
                      a.Open("/x" + std::to_string(i), kCreateWrite));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(4, 1)));
    (void)RunTask(bed_.sched(), a.Close(*fd));
  }

  const auto forced = session.proxy(1).stats().force_invalidations;
  bed_.network().SetLinkUp(Host(1), bed_.server_host(), true);
  (void)RunTask(bed_.sched(), Advance(Seconds(25)));
  EXPECT_GT(session.proxy(1).stats().force_invalidations, forced);

  // And b still observes a consistent view afterwards.
  EXPECT_TRUE(*RunTask(bed_.sched(), b.Exists("/x7")));
}

TEST_F(FailureTest, RecallTimesOutWhenHolderPartitioned) {
  // A write-delegation holder behind a partition cannot answer the recall;
  // the server proceeds after the callback times out, so other clients are
  // not blocked forever.
  auto& session = bed_.CreateSession(Delegation(), {0, 1}, Noac());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  auto fd = RunTask(bed_.sched(), a.Open("/d", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(16, 1)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  auto fd2 = RunTask(bed_.sched(), a.Open("/d", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(16, 2)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));  // absorbed: a holds dirty data

  bed_.network().SetLinkUp(Host(0), bed_.server_host(), false);

  const SimTime start = bed_.sched().Now();
  auto fd_b = RunTask(bed_.sched(), b.Open("/d", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 0, 16));
  ASSERT_TRUE(data.has_value());
  // The recall timed out; b proceeds with the server's (older) copy.
  EXPECT_EQ((*data)[0], 1);
  EXPECT_GT(bed_.sched().Now() - start, Seconds(1));  // paid the recall timeout
}

TEST_F(FailureTest, ServerCrashDuringDirtyStateThenRecovery) {
  auto& session = bed_.CreateSession(Delegation(), {0, 1}, Noac());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  auto fd = RunTask(bed_.sched(), a.Open("/j", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(32, 1)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  auto fd2 = RunTask(bed_.sched(), a.Open("/j", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(32, 9)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));
  ASSERT_GE(session.proxy(0).cache().FilesWithDirtyData().size(), 1u);

  // Crash + recover: the client list persisted, the recovery callback
  // rebuilds the open-file table from a's dirty report.
  session.server->Crash();
  (void)RunTask(bed_.sched(), session.server->Recover());

  auto fd_b = RunTask(bed_.sched(), b.Open("/j", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 0, 32));
  ASSERT_TRUE(data.has_value());
  ASSERT_FALSE(data->empty());
  EXPECT_EQ((*data)[0], 9);  // a's delegated dirty data survived the crash
}

TEST_F(FailureTest, GracePeriodBlocksRequestsUntilRecoveryCompletes) {
  auto& session = bed_.CreateSession(Delegation(), {0, 1}, Noac());
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  (void)RunTask(bed_.sched(), session.mount(1).Stat("/f"));

  // Partition client 1 so the recovery callback to it must time out: the
  // grace period is observable.
  bed_.network().SetLinkUp(Host(1), bed_.server_host(), false);
  session.server->Crash();

  bool recovered = false;
  sim::Spawn(testutil::MarkDone(session.server->Recover(), &recovered));
  bed_.sched().Run(1);
  EXPECT_TRUE(session.server->InGrace());

  // A request issued during grace completes only after recovery finishes.
  auto attr = RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  EXPECT_TRUE(attr.has_value());
  EXPECT_TRUE(recovered);
  EXPECT_FALSE(session.server->InGrace());
}

TEST_F(FailureTest, DoubleCrashClientAndServer) {
  // Both ends crash; the disk cache and the persistent client list survive,
  // and the session reassembles.
  auto& session = bed_.CreateSession(Delegation(), {0, 1}, Noac());
  auto& a = session.mount(0);

  auto fd = RunTask(bed_.sched(), a.Open("/x", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(8, 3)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  auto fd2 = RunTask(bed_.sched(), a.Open("/x", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(8, 4)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));

  session.proxy(0).Crash();
  session.server->Crash();
  (void)RunTask(bed_.sched(), session.server->Recover());
  (void)RunTask(bed_.sched(), session.proxy(0).Recover());
  session.mount(0).DropCaches();

  EXPECT_TRUE(session.proxy(0).corrupted_files().empty());
  (void)RunTask(bed_.sched(), session.proxy(0).FlushAll());

  auto& b = session.mount(1);
  auto fd_b = RunTask(bed_.sched(), b.Open("/x", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 0, 8));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], 4);
}

TEST_F(FailureTest, EveryWholeCacheInvalidationIsCounted) {
  // A client's force_invalidations counter and its kInvForce events agree
  // after a server restart (recovery callback) and its own restart.
  auto& session = bed_.CreateSession(Delegation(), {0, 1}, Noac());
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  (void)RunTask(bed_.sched(), session.mount(1).Stat("/f"));

  session.server->Crash();
  (void)RunTask(bed_.sched(), session.server->Recover());
  session.proxy(0).Crash();
  (void)RunTask(bed_.sched(), session.proxy(0).Recover());

  const trace::TraceBuffer& trace = *bed_.trace_buffer();
  for (int i = 0; i < 2; ++i) {
    std::uint64_t forced = 0;
    for (std::size_t e = 0; e < trace.size(); ++e) {
      const trace::Event& ev = trace.at(e);
      if (ev.type == trace::EventType::kInvForce && ev.host == Host(i)) {
        ++forced;
      }
    }
    EXPECT_EQ(forced, i == 0 ? 2u : 1u) << "client " << i;
    EXPECT_EQ(session.proxy(i).stats().force_invalidations, forced)
        << "client " << i;
  }
}

TEST_F(FailureTest, FileDroppedDuringRecoveryProbeIsNotTouched) {
  // Regression: RecoverFile captured the disk-cache entry pointer before
  // awaiting the recovery GETATTR; dropping the file during that await (as
  // a concurrent REMOVE does) left the pointer dangling for the conflict
  // check. The lookup now happens after the await.
  auto& session = bed_.CreateSession(Delegation(), {0}, Noac());
  auto& a = session.mount(0);

  auto fd = RunTask(bed_.sched(), a.Open("/r", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(32, 7)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  auto fd2 = RunTask(bed_.sched(), a.Open("/r", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(32, 9)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));

  const auto dirty = session.proxy(0).cache().FilesWithDirtyData();
  ASSERT_GE(dirty.size(), 1u);
  const nfs3::Fh fh = dirty.front();

  session.proxy(0).Crash();
  bool recovered = false;
  sim::Spawn(testutil::MarkDone(session.proxy(0).Recover(), &recovered));
  // Drop the file while the recovery probe is parked on its GETATTR — half
  // the WAN round trip in.
  bed_.sched().At(bed_.sched().Now() + Milliseconds(10),
                  [this, &session, fh] {
                    session.proxy(0).cache().DropFileData(fh);
                  });
  while (!recovered && !bed_.sched().Idle()) bed_.sched().Run(1);
  ASSERT_TRUE(recovered);
  // The entry is gone; recovery must neither resurrect nor flush it.
  EXPECT_TRUE(session.proxy(0).cache().FilesWithDirtyData().empty());
}

TEST_F(FailureTest, AsymmetricLossRetriesViaDuplicateCache) {
  // Replies dropped one way: the kernel's retransmissions are absorbed by
  // the proxy chain's duplicate-request caches, so non-idempotent operations
  // (CREATE) execute exactly once.
  auto& session = bed_.CreateSession(Polling(Seconds(30)), {0});
  auto& a = session.mount(0);

  bed_.network().SetOneWayUp(bed_.server_host(), Host(0), false);
  bed_.sched().At(bed_.sched().Now() + Milliseconds(2500), [this] {
    bed_.network().SetOneWayUp(bed_.server_host(), Host(0), true);
  });

  auto fd = RunTask(bed_.sched(), a.Open("/once", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), a.Close(*fd));
  // Exactly one file, despite the retransmitted CREATEs.
  auto ino = bed_.fs().ResolvePath("/once");
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(bed_.fs().GetAttr(*ino)->nlink, 1u);
}

TEST_F(FailureTest, PollerKeepsTryingThroughServerOutage) {
  auto& session = bed_.CreateSession(Polling(Seconds(10)), {0});
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));

  session.server->Crash();
  (void)RunTask(bed_.sched(), Advance(Seconds(35)));  // several failed polls
  (void)RunTask(bed_.sched(), session.server->Recover());
  (void)RunTask(bed_.sched(), Advance(Seconds(25)));

  // The poller re-bootstrapped; the mount still works.
  auto attr = RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  EXPECT_TRUE(attr.has_value());
  EXPECT_GT(session.proxy(0).stats().polls, 2u);
}

}  // namespace
}  // namespace gvfs::workloads
