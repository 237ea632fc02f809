// End-to-end tests for the invalidation-polling consistency model (§4.2):
// GETINV protocol cases, staleness windows, batching, back-off, write-back
// caching, and soft-state failure handling.
#include <gtest/gtest.h>

#include "test_util.h"
#include "trace_oracle.h"
#include "workloads/testbed.h"

namespace gvfs::workloads {
namespace {

using kclient::OpenFlags;
using nfs3::Status;
using proxy::CacheMode;
using proxy::ConsistencyModel;
using proxy::SessionConfig;
using testutil::RunTask;

constexpr OpenFlags kRead{};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

SessionConfig PollingConfig(Duration period = Seconds(30)) {
  SessionConfig config;
  config.model = ConsistencyModel::kInvalidationPolling;
  config.poll_period = period;
  config.poll_max_period = period;
  return config;
}

class PollingTest : public ::testing::Test {
 protected:
  PollingTest() {
    bed_.AddWanClient();
    bed_.AddWanClient();
    bed_.EnableTracing();
  }

  // Every polling scenario doubles as a protocol-invariant check over its
  // full event history (trace_oracle.h).
  void TearDown() override { testutil::ExpectTraceClean(bed_); }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  Testbed bed_;
};

TEST_F(PollingTest, CachedAttrsServedLocallyUntilInvalidated) {
  auto& session = bed_.CreateSession(PollingConfig(), {0});
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());

  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  const auto wan_getattrs = session.stats->Calls("GETATTR");

  // The kernel attr cache expires after 30 s, but the proxy keeps answering
  // locally: no further WAN GETATTRs even long past the TTL.
  (void)RunTask(bed_.sched(), Advance(Seconds(120)));
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  EXPECT_EQ(session.stats->Calls("GETATTR"), wan_getattrs);
  EXPECT_GT(session.proxy(0).stats().served_locally, 0u);
}

TEST_F(PollingTest, RemoteChangeVisibleAfterPoll) {
  auto& session = bed_.CreateSession(PollingConfig(Seconds(30)), {0, 1});
  kclient::MountOptions native;
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // a creates and fills the file.
  auto fd = RunTask(bed_.sched(), a.Open("/data", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(10, 1)));
  (void)RunTask(bed_.sched(), a.Close(*fd));

  // b reads and caches it.
  auto fd_b = RunTask(bed_.sched(), b.Open("/data", kRead));
  auto first = RunTask(bed_.sched(), b.Read(*fd_b, 0, 10));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 1);

  // a rewrites. b's kernel + proxy caches are stale within the window.
  (void)RunTask(bed_.sched(), Advance(Seconds(31)));  // kernel cache expired
  auto fd2 = RunTask(bed_.sched(), a.Open("/data", OpenFlags{.read = true, .write = true}));
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(10, 2)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));

  // Within the polling window b may still read stale data (relaxed model).
  // After at most one polling period the invalidation arrives and the next
  // access revalidates.
  (void)RunTask(bed_.sched(), Advance(Seconds(35)));
  auto second = RunTask(bed_.sched(), b.Read(*fd_b, 0, 10));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 2);
}

TEST_F(PollingTest, OnlyModifiedFilesRevalidated) {
  auto& session = bed_.CreateSession(PollingConfig(Seconds(10)), {0, 1});
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  for (int i = 0; i < 5; ++i) {
    auto ino = bed_.fs().Create(bed_.fs().root(), "f" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.has_value());
  }
  // b caches all five files; a warms its own path to f2 (so the shared
  // session counter below isolates b's revalidation traffic).
  for (int i = 0; i < 5; ++i) {
    (void)RunTask(bed_.sched(), b.Stat("/f" + std::to_string(i)));
  }
  (void)RunTask(bed_.sched(), a.Stat("/f2"));
  (void)RunTask(bed_.sched(), Advance(Seconds(60)));
  const auto wan_before = session.stats->Calls("GETATTR");

  // a touches only f2 (via the session, so the proxy server sees it).
  auto fd = RunTask(bed_.sched(), a.Open("/f2", OpenFlags{.read = true, .write = true}));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(5, 9)));
  (void)RunTask(bed_.sched(), a.Close(*fd));

  (void)RunTask(bed_.sched(), Advance(Seconds(15)));  // poll delivered
  // b stats everything: only f2 needs a WAN revalidation.
  for (int i = 0; i < 5; ++i) {
    (void)RunTask(bed_.sched(), b.Stat("/f" + std::to_string(i)));
  }
  const auto wan_after = session.stats->Calls("GETATTR");
  EXPECT_EQ(wan_after - wan_before, 1u);
}

TEST_F(PollingTest, GetInvBatchingPollAgain) {
  // One poll window long enough for the writer to touch more distinct files
  // than one GETINV reply carries.
  constexpr int kFiles = 600;
  static_assert(kFiles > static_cast<int>(proxy::kGetInvBatch));
  auto& session = bed_.CreateSession(PollingConfig(Seconds(600)), {0, 1});
  auto& a = session.mount(0);
  for (int i = 0; i < kFiles; ++i) {
    auto ino = bed_.fs().Create(bed_.fs().root(), "w" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.has_value());
  }

  // b bootstraps at start; its next poll is a window away.
  (void)RunTask(bed_.sched(), Advance(Seconds(1)));
  const auto polls_before = session.proxy(1).stats().polls;

  // a writes every file through the session: each is one invalidation b is
  // owed.
  for (int i = 0; i < kFiles; ++i) {
    auto fd = RunTask(bed_.sched(),
                      a.Open("/w" + std::to_string(i), OpenFlags{.read = true, .write = true}));
    ASSERT_TRUE(fd.has_value());
    (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(4, 1)));
    (void)RunTask(bed_.sched(), a.Close(*fd));
  }
  ASSERT_EQ(session.proxy(1).stats().polls, polls_before);  // still one window

  (void)RunTask(bed_.sched(), Advance(Seconds(600)));
  // 600 invalidations at 512 per reply => one poll plus one poll-again in
  // the same round.
  EXPECT_EQ(session.proxy(1).stats().polls - polls_before, 2u);
  EXPECT_EQ(session.proxy(1).stats().invalidations_applied,
            static_cast<std::uint64_t>(kFiles));
}

TEST_F(PollingTest, BufferOverflowForcesFullInvalidation) {
  SessionConfig config = PollingConfig(Seconds(1000));  // effectively no polls
  config.inv_buffer_capacity = 4;
  auto& session = bed_.CreateSession(config, {0, 1});
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // Register b with a first poll cycle... the poller is slow, so trigger
  // registration by one normal call through the proxy and then wait for the
  // long first poll: instead, shorten by making b stat once (registers the
  // NFS side) — GETINV registration happens on the first poll only, so we
  // use the long way: advance past one period.
  (void)RunTask(bed_.sched(), b.Stat("/"));
  (void)RunTask(bed_.sched(), Advance(Seconds(1001)));

  // a dirties more distinct files than the buffer holds.
  for (int i = 0; i < 8; ++i) {
    auto fd = RunTask(bed_.sched(),
                      a.Open("/x" + std::to_string(i),
                             OpenFlags{.read = true, .write = true, .create = true}));
    (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(4, 1)));
    (void)RunTask(bed_.sched(), a.Close(*fd));
  }

  const auto forced_before = session.proxy(1).stats().force_invalidations;
  (void)RunTask(bed_.sched(), Advance(Seconds(1001)));
  EXPECT_GT(session.proxy(1).stats().force_invalidations, forced_before);
  EXPECT_GT(session.server->stats().force_invalidations, 0u);
}

TEST_F(PollingTest, ExponentialBackoffWhenQuiet) {
  SessionConfig config = PollingConfig(Seconds(10));
  config.poll_max_period = Seconds(80);
  auto& session = bed_.CreateSession(config, {0});

  (void)RunTask(bed_.sched(), Advance(Seconds(400)));
  // With back-off 10,20,40,80,80..., far fewer polls than 40.
  const auto polls = session.proxy(0).stats().polls;
  EXPECT_LT(polls, 12u);
  EXPECT_GE(polls, 5u);
}

TEST_F(PollingTest, WriteBackAbsorbsWritesAndCommits) {
  SessionConfig config = PollingConfig(Seconds(30));
  config.cache_mode = CacheMode::kWriteBack;
  config.wb_flush_period = Seconds(300);
  auto& session = bed_.CreateSession(config, {0});
  auto& a = session.mount(0);

  auto fd = RunTask(bed_.sched(), a.Open("/wb", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(1000, 3)));
  (void)RunTask(bed_.sched(), a.Close(*fd));  // kernel flush -> proxy absorbs

  EXPECT_EQ(session.stats->Calls("WRITE"), 0u);   // nothing over the WAN
  EXPECT_EQ(session.stats->Calls("COMMIT"), 0u);  // commit absorbed too

  // Shutdown flushes dirty data to the server.
  (void)RunTask(bed_.sched(), session.Shutdown());
  EXPECT_GE(session.stats->Calls("WRITE"), 1u);
  auto ino = bed_.fs().ResolvePath("/wb");
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(bed_.fs().GetAttr(*ino)->size, 1000u);
}

TEST_F(PollingTest, PeriodicFlusherPushesDirtyData) {
  SessionConfig config = PollingConfig(Seconds(30));
  config.cache_mode = CacheMode::kWriteBack;
  config.wb_flush_period = Seconds(60);
  auto& session = bed_.CreateSession(config, {0});
  auto& a = session.mount(0);

  auto fd = RunTask(bed_.sched(), a.Open("/wb", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(100, 3)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  EXPECT_EQ(session.stats->Calls("WRITE"), 0u);

  (void)RunTask(bed_.sched(), Advance(Seconds(70)));
  EXPECT_GE(session.stats->Calls("WRITE"), 1u);
  auto ino = bed_.fs().ResolvePath("/wb");
  EXPECT_EQ(bed_.fs().GetAttr(*ino)->size, 100u);
}

TEST_F(PollingTest, CoalescedRepeatedWritesFlushOnce) {
  SessionConfig config = PollingConfig(Seconds(30));
  config.cache_mode = CacheMode::kWriteBack;
  config.wb_flush_period = 0;  // flush only on shutdown
  auto& session = bed_.CreateSession(config, {0});
  auto& a = session.mount(0);

  // Rewrite the same block 10 times.
  for (int i = 0; i < 10; ++i) {
    auto fd = RunTask(bed_.sched(), a.Open("/obj", kCreateWrite));
    (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(100, static_cast<std::uint8_t>(i))));
    (void)RunTask(bed_.sched(), a.Close(*fd));
  }
  (void)RunTask(bed_.sched(), session.Shutdown());
  // One WAN WRITE despite ten rewrites: coalescing in the disk cache.
  EXPECT_EQ(session.stats->Calls("WRITE"), 1u);
}

TEST_F(PollingTest, RemoverDropsVictimAttrsOfLinkedFile) {
  // The server does not send a client its own mutations, so after a REMOVE
  // only the remover's proxy can drop the victim's attributes. Another link
  // to the victim then shows the new link count.
  auto& session = bed_.CreateSession(PollingConfig(), {0});
  auto& fs = bed_.fs();
  auto f = fs.Create(fs.root(), "f", 0644);
  ASSERT_TRUE(f.has_value());
  ASSERT_TRUE(fs.Link(*f, fs.root(), "g").has_value());

  (void)RunTask(bed_.sched(), Advance(Seconds(120)));
  auto before = RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->nlink, 2u);

  ASSERT_TRUE(RunTask(bed_.sched(), session.mount(0).Unlink("/f")).has_value());
  (void)RunTask(bed_.sched(), Advance(Seconds(120)));
  auto after = RunTask(bed_.sched(), session.mount(0).Stat("/g"));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->nlink, 1u);
}

TEST_F(PollingTest, RemoverDropsVictimAttrsThroughAStaleLookup) {
  // Another client's change to the directory makes the remover's lookup of
  // the victim stale; the REMOVE must still drop the victim's attributes,
  // or another link to it keeps showing the old link count.
  auto& session = bed_.CreateSession(PollingConfig(), {0, 1});
  auto& fs = bed_.fs();
  auto f = fs.Create(fs.root(), "f", 0644);
  ASSERT_TRUE(f.has_value());
  ASSERT_TRUE(fs.Link(*f, fs.root(), "g").has_value());

  auto before = RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->nlink, 2u);

  auto fd = RunTask(bed_.sched(), session.mount(1).Open("/x", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  ASSERT_TRUE(RunTask(bed_.sched(), session.mount(1).Close(*fd)).has_value());
  (void)RunTask(bed_.sched(), Advance(Seconds(120)));

  ASSERT_TRUE(RunTask(bed_.sched(), session.mount(0).Unlink("/f")).has_value());
  (void)RunTask(bed_.sched(), Advance(Seconds(120)));
  auto after = RunTask(bed_.sched(), session.mount(0).Stat("/g"));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->nlink, 1u);
}

TEST_F(PollingTest, ServerRestartForcesClientReset) {
  auto& session = bed_.CreateSession(PollingConfig(Seconds(20)), {0});
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  (void)RunTask(bed_.sched(), Advance(Seconds(45)));  // client registered, polled

  session.server->Crash();
  (void)RunTask(bed_.sched(), Advance(Seconds(25)));  // a poll fails silently
  (void)RunTask(bed_.sched(), session.server->Recover());

  const auto forced = session.proxy(0).stats().force_invalidations;
  (void)RunTask(bed_.sched(), Advance(Seconds(45)));
  // First GETINV after restart is treated as an unknown client: bootstrap
  // with force-invalidate (§4.2.2 / §4.2.3).
  EXPECT_GT(session.proxy(0).stats().force_invalidations, forced);

  // And the session still works.
  auto attr = RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  EXPECT_TRUE(attr.has_value());
}

TEST_F(PollingTest, ClientCrashLosesTimestampAndRecovers) {
  auto& session = bed_.CreateSession(PollingConfig(Seconds(20)), {0});
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  (void)RunTask(bed_.sched(), Advance(Seconds(45)));

  session.proxy(0).Crash();
  session.mount(0).DropCaches();  // the host rebooted
  (void)RunTask(bed_.sched(), session.proxy(0).Recover());

  // After recovery the proxy polls with a null timestamp and gets a
  // force-invalidation; file access works and revalidates.
  (void)RunTask(bed_.sched(), Advance(Seconds(45)));
  auto attr = RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  EXPECT_TRUE(attr.has_value());
}

TEST_F(PollingTest, TwoSessionsIndependent) {
  // Two sessions over the same physical resources with different policies
  // (the Figure 1 scenario).
  auto& fast = bed_.CreateSession(PollingConfig(Seconds(5)), {0});
  auto& slow = bed_.CreateSession(PollingConfig(Seconds(300)), {1});

  (void)RunTask(bed_.sched(), Advance(Seconds(100)));
  EXPECT_GT(fast.proxy(0).stats().polls, 10u);
  EXPECT_LE(slow.proxy(0).stats().polls, 1u);
}

}  // namespace
}  // namespace gvfs::workloads
