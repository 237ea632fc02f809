// End-to-end tests for the delegation/callback strong-consistency model
// (§4.3): grants, recalls, the write-back block-list optimization, renewal,
// expiry, and crash recovery with grace periods.
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

SessionConfig CbConfig() {
  SessionConfig config;
  config.model = ConsistencyModel::kDelegationCallback;
  config.cache_mode = CacheMode::kWriteBack;
  config.deleg_expiry = Seconds(600);
  config.deleg_renew = Seconds(480);
  config.wb_flush_period = 0;  // flush driven by recalls/shutdown
  return config;
}

/// The paper's strong-consistency session disables the kernel attribute
/// cache so every check reaches the proxy (§5.1.1, GVFS2).
MountOptions NoacKernel() {
  MountOptions options;
  options.noac = true;
  return options;
}

class DelegationTest : public ::testing::Test {
 protected:
  DelegationTest() {
    bed_.AddWanClient();
    bed_.AddWanClient();
    bed_.EnableTracing();
  }

  // Every delegation scenario doubles as a protocol-invariant check over
  // its full event history (trace_oracle.h).
  void TearDown() override { testutil::ExpectTraceClean(bed_); }

  sim::Task<void> Advance(Duration d) { co_await sim::Sleep(bed_.sched(), d); }

  Testbed bed_;
};

TEST_F(DelegationTest, ReadDelegationFiltersConsistencyChecks) {
  auto& session = bed_.CreateSession(CbConfig(), {0}, NoacKernel());
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());

  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  const auto wan = session.stats->Calls("GETATTR") + session.stats->Calls("LOOKUP");

  // noac kernel: every stat hits the proxy; the read delegation answers all
  // of them locally with zero WAN traffic.
  for (int i = 0; i < 50; ++i) {
    (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  }
  EXPECT_EQ(session.stats->Calls("GETATTR") + session.stats->Calls("LOOKUP"), wan);
  EXPECT_GT(session.proxy(0).stats().served_locally, 40u);
}

TEST_F(DelegationTest, RemoteWriteRecallsReadDelegation) {
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // a creates and writes; b reads and holds a read delegation.
  auto fd = RunTask(bed_.sched(), a.Open("/d", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(10, 1)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  (void)RunTask(bed_.sched(), session.proxy(0).FlushAll());

  auto fd_b = RunTask(bed_.sched(), b.Open("/d", kRead));
  auto first = RunTask(bed_.sched(), b.Read(*fd_b, 0, 10));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 1);

  // a rewrites: the proxy server recalls b's read delegation *before* the
  // write proceeds, so b's very next read sees fresh data — no staleness
  // window at all (strong consistency).
  auto fd2 = RunTask(bed_.sched(), a.Open("/d", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(10, 2)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));
  (void)RunTask(bed_.sched(), session.proxy(0).FlushAll());

  auto second = RunTask(bed_.sched(), b.Read(*fd_b, 0, 10));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 2);
  EXPECT_GT(session.server->stats().callbacks_sent, 0u);
  // a's write recalled b's read delegation (callback to b's proxy).
  EXPECT_GT(session.proxy(1).stats().callbacks_received, 0u);
}

TEST_F(DelegationTest, WriteDelegationAbsorbsWritesUntilRecalled) {
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // Sole opener: a acquires a write delegation, so its flushes stay local.
  auto fd = RunTask(bed_.sched(), a.Open("/w", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(100, 7)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  // The first kernel flush forwards one WRITE (acquiring the delegation);
  // subsequent rewrites are absorbed locally.
  const auto writes_after_first = session.stats->Calls("WRITE");
  for (int i = 0; i < 5; ++i) {
    auto fd2 = RunTask(bed_.sched(), a.Open("/w", kWrite));
    (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(100, static_cast<std::uint8_t>(i))));
    (void)RunTask(bed_.sched(), a.Close(*fd2));
  }
  EXPECT_EQ(session.stats->Calls("WRITE"), writes_after_first);

  // b reads: recall forces a's dirty data back; b sees the latest bytes.
  auto fd_b = RunTask(bed_.sched(), b.Open("/w", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 0, 100));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], 4);  // last write wins
  EXPECT_GT(session.server->stats().recalls_write, 0u);
}

TEST_F(DelegationTest, CreateRemoveVisibleImmediately) {
  // The lock-file scenario: strong consistency means a release is visible
  // to other clients at once.
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // b polls for the lock file; negative lookups are served locally under
  // the directory's read delegation.
  EXPECT_FALSE(*RunTask(bed_.sched(), b.Exists("/lock")));
  EXPECT_FALSE(*RunTask(bed_.sched(), b.Exists("/lock")));

  // a takes the lock.
  auto fd = RunTask(bed_.sched(), a.Open("/lock", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  EXPECT_TRUE(*RunTask(bed_.sched(), b.Exists("/lock")));  // immediately visible

  // a releases.
  ASSERT_TRUE(RunTask(bed_.sched(), a.Unlink("/lock")).has_value());
  EXPECT_FALSE(*RunTask(bed_.sched(), b.Exists("/lock")));  // immediately gone
}

TEST_F(DelegationTest, NegativeLookupsServedLocally) {
  auto& session = bed_.CreateSession(CbConfig(), {0}, NoacKernel());
  auto& a = session.mount(0);

  EXPECT_FALSE(*RunTask(bed_.sched(), a.Exists("/nope")));
  const auto wan = session.stats->TotalCalls();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(*RunTask(bed_.sched(), a.Exists("/nope")));
  }
  EXPECT_EQ(session.stats->TotalCalls(), wan);  // all local
}

TEST_F(DelegationTest, BlockListOptimizationServesContendedBlockFirst) {
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // a dirties more blocks than a recall flushes while the caller waits
  // (1024, about 33 MB) under its write delegation.
  constexpr std::uint64_t kBlocks = 1040;
  constexpr std::uint64_t kBlock = memfs::kBlockSize;
  auto fd = RunTask(bed_.sched(), a.Open("/big", kCreateWrite));
  Bytes payload;
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    payload.assign(kBlock, static_cast<std::uint8_t>(i + 1));
    (void)RunTask(bed_.sched(), a.Write(*fd, i * kBlock, payload));
  }
  (void)RunTask(bed_.sched(), a.Close(*fd));
  // The very first WRITE went upstream (acquiring the write delegation);
  // the rest were absorbed into the disk cache.
  const nfs3::Fh big{1, *bed_.fs().ResolvePath("/big")};
  ASSERT_EQ(session.proxy(0).cache().DirtyBlockCount(big), kBlocks - 1);

  // b reads block 3: the callback returns a block list, the wanted block is
  // written back synchronously, and b's read completes with correct data
  // long before the rest (33 MB at 4 Mbps, over a minute) reaches the server.
  const SimTime start = bed_.sched().Now();
  auto fd_b = RunTask(bed_.sched(), b.Open("/big", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 3 * kBlock, kBlock));
  ASSERT_TRUE(data.has_value());
  ASSERT_FALSE(data->empty());
  EXPECT_EQ((*data)[0], 4);
  EXPECT_LT(bed_.sched().Now() - start, Seconds(1));

  // The asynchronous remainder flush eventually drains everything.
  (void)RunTask(bed_.sched(), Advance(Seconds(300)));
  EXPECT_EQ(session.proxy(0).cache().DirtyBlockCount(big), 0u);
  auto server_data = bed_.fs().Read(big.ino, (kBlocks - 1) * kBlock, kBlock);
  ASSERT_TRUE(server_data.has_value());
  EXPECT_EQ(server_data->data[0], static_cast<std::uint8_t>(kBlocks));
}

TEST_F(DelegationTest, DelegationExpiresWithoutRenewal) {
  SessionConfig config = CbConfig();
  config.deleg_expiry = Seconds(60);
  config.deleg_renew = Seconds(48);
  auto& session = bed_.CreateSession(config, {0}, NoacKernel());
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());

  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  const auto wan = session.stats->Calls("GETATTR");
  // Within the renewal window: local.
  (void)RunTask(bed_.sched(), Advance(Seconds(30)));
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  EXPECT_EQ(session.stats->Calls("GETATTR"), wan);
  // Past the renewal period the next access bypasses the cache (renewal).
  (void)RunTask(bed_.sched(), Advance(Seconds(30)));
  (void)RunTask(bed_.sched(), session.mount(0).Stat("/f"));
  EXPECT_GT(session.stats->Calls("GETATTR"), wan);
}

TEST_F(DelegationTest, ServerCrashRecoveryRebuildsState) {
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // a holds a write delegation with dirty data (the first write acquires
  // the delegation; the rewrite is absorbed and stays dirty).
  auto fd = RunTask(bed_.sched(), a.Open("/wal", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(64, 1)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  auto fd_r = RunTask(bed_.sched(), a.Open("/wal", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd_r, 0, Bytes(64, 9)));
  (void)RunTask(bed_.sched(), a.Close(*fd_r));
  EXPECT_GE(session.proxy(0).cache().FilesWithDirtyData().size(), 1u);

  session.server->Crash();
  (void)RunTask(bed_.sched(), session.server->Recover());
  EXPECT_FALSE(session.server->InGrace());

  // b reads the file: the rebuilt open-file table knows a holds dirty data,
  // recalls it, and b sees the bytes.
  auto fd_b = RunTask(bed_.sched(), b.Open("/wal", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 0, 64));
  ASSERT_TRUE(data.has_value());
  ASSERT_FALSE(data->empty());
  EXPECT_EQ((*data)[0], 9);
}

TEST_F(DelegationTest, ClientCrashRecoveryKeepsDirtyData) {
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  auto fd = RunTask(bed_.sched(), a.Open("/journal", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(64, 4)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  auto fd_r = RunTask(bed_.sched(), a.Open("/journal", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd_r, 0, Bytes(64, 5)));
  (void)RunTask(bed_.sched(), a.Close(*fd_r));

  session.proxy(0).Crash();
  session.mount(0).DropCaches();
  (void)RunTask(bed_.sched(), session.proxy(0).Recover());
  EXPECT_TRUE(session.proxy(0).corrupted_files().empty());

  // The dirty data survived the crash; after a full flush b reads it.
  (void)RunTask(bed_.sched(), session.proxy(0).FlushAll());
  auto fd_b = RunTask(bed_.sched(), b.Open("/journal", kRead));
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 0, 64));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], 5);
}

TEST_F(DelegationTest, ClientCrashConflictMarksDataCorrupted) {
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  auto& a = session.mount(0);
  auto& b = session.mount(1);

  // a buffers dirty data under a write delegation (second write absorbed)...
  auto fd = RunTask(bed_.sched(), a.Open("/conflict", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(64, 4)));
  (void)RunTask(bed_.sched(), a.Close(*fd));
  auto fd_r = RunTask(bed_.sched(), a.Open("/conflict", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd_r, 0, Bytes(64, 5)));
  (void)RunTask(bed_.sched(), a.Close(*fd_r));
  ASSERT_GE(session.proxy(0).cache().FilesWithDirtyData().size(), 1u);
  session.proxy(0).Crash();

  // ...and while a is down, b modifies the file (a's delegation holder is
  // unreachable; the recall times out and the server proceeds).
  auto fd_b = RunTask(bed_.sched(), b.Open("/conflict", kWrite));
  ASSERT_TRUE(fd_b.has_value());
  (void)RunTask(bed_.sched(), b.Write(*fd_b, 0, Bytes(64, 6)));
  (void)RunTask(bed_.sched(), b.Close(*fd_b));
  (void)RunTask(bed_.sched(), session.proxy(1).FlushAll());

  (void)RunTask(bed_.sched(), session.proxy(0).Recover());
  // a detects the conflict (server mtime advanced) and discards its dirty
  // data as corrupted (§4.3.4).
  EXPECT_EQ(session.proxy(0).corrupted_files().size(), 1u);

  auto ino = bed_.fs().ResolvePath("/conflict");
  auto data = bed_.fs().Read(*ino, 0, 64);
  EXPECT_EQ(data->data[0], 6);  // b's write was not clobbered
}

TEST_F(DelegationTest, ConcurrentReadersBothGetDelegations) {
  auto& session = bed_.CreateSession(CbConfig(), {0, 1}, NoacKernel());
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "shared", 0644).has_value());

  (void)RunTask(bed_.sched(), session.mount(0).Stat("/shared"));
  (void)RunTask(bed_.sched(), session.mount(1).Stat("/shared"));
  const auto wan = session.stats->Calls("GETATTR");
  // Both hold read delegations simultaneously: all further checks local.
  for (int i = 0; i < 10; ++i) {
    (void)RunTask(bed_.sched(), session.mount(0).Stat("/shared"));
    (void)RunTask(bed_.sched(), session.mount(1).Stat("/shared"));
  }
  EXPECT_EQ(session.stats->Calls("GETATTR"), wan);
}

/// perfbench postmark-deleg's session: delegation, write-through, a write
/// window of 8, read-ahead of 8 blocks.
SessionConfig PostmarkConfig() {
  SessionConfig config;
  config.model = ConsistencyModel::kDelegationCallback;
  config.cache_mode = CacheMode::kReadOnly;
  config.wb_window = 8;
  config.read_ahead = 8;
  return config;
}

void WriteFile(Testbed& bed, kclient::KernelClient& mount, const std::string& path,
               std::size_t size) {
  auto fd = RunTask(bed.sched(), mount.Open(path, kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  const Bytes data(size, 7);
  if (size > 0) {
    ASSERT_TRUE(RunTask(bed.sched(), mount.Write(*fd, 0, data)).has_value());
  }
  ASSERT_TRUE(RunTask(bed.sched(), mount.Close(*fd)).has_value());
}

TEST_F(DelegationTest, RemoveReclaimsTheVictimsBlocksThroughAStaleLookup) {
  // Creating /g after /f makes the proxy's lookup of /f stale, as the
  // creates and removes of a PostMark run do; the REMOVE still finds the
  // victim by the handle last recorded under its name.
  auto& session = bed_.CreateSession(PostmarkConfig(), {0}, NoacKernel());
  WriteFile(bed_, session.mount(0), "/f", 64 * 1024);
  const std::uint64_t cached = session.proxy(0).cache().CachedBytes();
  EXPECT_EQ(cached, 64u * 1024);
  WriteFile(bed_, session.mount(0), "/g", 0);
  ASSERT_TRUE(RunTask(bed_.sched(), session.mount(0).Unlink("/f")).has_value());
  EXPECT_EQ(session.proxy(0).cache().CachedBytes(), cached - 64 * 1024);
}

TEST_F(DelegationTest, RemoveKeepsTheBlocksOfAVictimLinkedElsewhere) {
  auto& session = bed_.CreateSession(PostmarkConfig(), {0}, NoacKernel());
  WriteFile(bed_, session.mount(0), "/f", 64 * 1024);
  ASSERT_TRUE(RunTask(bed_.sched(), session.mount(0).Link("/f", "/h")).has_value());
  WriteFile(bed_, session.mount(0), "/g", 0);
  const std::uint64_t cached = session.proxy(0).cache().CachedBytes();
  EXPECT_EQ(cached, 64u * 1024);
  ASSERT_TRUE(RunTask(bed_.sched(), session.mount(0).Unlink("/f")).has_value());
  EXPECT_EQ(session.proxy(0).cache().CachedBytes(), cached);
}

}  // namespace
}  // namespace gvfs::workloads
