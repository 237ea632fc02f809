#include <gtest/gtest.h>

#include "kclient/kernel_client.h"
#include "memfs/memfs.h"
#include "net/network.h"
#include "nfs3/server.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "test_util.h"

namespace gvfs::kclient {
namespace {

using nfs3::Status;
using testutil::RunTask;

constexpr OpenFlags kRead{};
constexpr OpenFlags kWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

class KclientTest : public ::testing::Test {
 protected:
  KclientTest()
      : network_(sched_),
        domain_(sched_, network_),
        fs_(sched_.NowPtr()),
        server_host_(network_.AddHost("server")),
        host_a_(network_.AddHost("a")),
        host_b_(network_.AddHost("b")),
        server_node_(domain_.CreateNode(server_host_, 2049, "nfsd")),
        node_a_(domain_.CreateNode(host_a_, 900, "kclient-a")),
        node_b_(domain_.CreateNode(host_b_, 900, "kclient-b")),
        server_(sched_, fs_, server_node_) {
    network_.Connect(host_a_, server_host_, net::LinkConfig{Milliseconds(20), 4'000'000});
    network_.Connect(host_b_, server_host_, net::LinkConfig{Milliseconds(20), 4'000'000});
    node_a_.SetStatsSink(&stats_a_);
    node_b_.SetStatsSink(&stats_b_);
  }

  /// Creates a client mount for host a (index 0) or b (index 1).
  KernelClient MakeClient(int host_index, MountOptions options = {}) {
    rpc::RpcNode& node = host_index == 0 ? node_a_ : node_b_;
    return KernelClient(sched_, node, server_node_.address(), server_.RootFh(),
                        std::move(options));
  }

  sim::Scheduler sched_;
  net::Network network_;
  rpc::Domain domain_;
  memfs::MemFs fs_;
  HostId server_host_, host_a_, host_b_;
  rpc::RpcNode& server_node_;
  rpc::RpcNode& node_a_;
  rpc::RpcNode& node_b_;
  nfs3::Nfs3Server server_;
  rpc::StatsMap stats_a_;
  rpc::StatsMap stats_b_;
};

// Convenience: advance simulated time (so attribute caches can expire).
sim::Task<void> Advance(sim::Scheduler* sched, Duration d) {
  co_await sim::Sleep(*sched, d);
}

TEST_F(KclientTest, CreateWriteCloseReadBack) {
  auto client = MakeClient(0);
  auto fd = RunTask(sched_, client.Open("/f", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  Bytes payload(100, 0x42);
  auto wrote = RunTask(sched_, client.Write(*fd, 0, payload));
  ASSERT_TRUE(wrote.has_value());
  EXPECT_EQ(*wrote, 100u);
  ASSERT_TRUE(RunTask(sched_, client.Close(*fd)).has_value());

  // Server now has the data (close flushed it).
  auto ino = fs_.ResolvePath("/f");
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(fs_.GetAttr(*ino)->size, 100u);

  auto fd2 = RunTask(sched_, client.Open("/f", kRead));
  ASSERT_TRUE(fd2.has_value());
  auto data = RunTask(sched_, client.Read(*fd2, 0, 200));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, payload);
}

TEST_F(KclientTest, WritesAreBufferedUntilClose) {
  auto client = MakeClient(0);
  auto fd = RunTask(sched_, client.Open("/f", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(sched_, client.Write(*fd, 0, Bytes(10, 1)));
  EXPECT_EQ(stats_a_.Calls("WRITE"), 0u);  // buffered
  (void)RunTask(sched_, client.Close(*fd));
  EXPECT_EQ(stats_a_.Calls("WRITE"), 1u);
  EXPECT_EQ(stats_a_.Calls("COMMIT"), 1u);
}

TEST_F(KclientTest, FsyncFlushesWithoutClose) {
  auto client = MakeClient(0);
  auto fd = RunTask(sched_, client.Open("/f", kCreateWrite));
  (void)RunTask(sched_, client.Write(*fd, 0, Bytes(10, 1)));
  (void)RunTask(sched_, client.Fsync(*fd));
  EXPECT_EQ(stats_a_.Calls("WRITE"), 1u);
  // A second close must not rewrite clean data.
  (void)RunTask(sched_, client.Close(*fd));
  EXPECT_EQ(stats_a_.Calls("WRITE"), 1u);
}

TEST_F(KclientTest, AttrCacheSuppressesRepeatGetattr) {
  auto client = MakeClient(0);
  ASSERT_TRUE(fs_.Create(fs_.root(), "f", 0644).has_value());
  (void)RunTask(sched_, client.Stat("/f"));
  const auto after_first = stats_a_.Calls("GETATTR");
  (void)RunTask(sched_, client.Stat("/f"));
  (void)RunTask(sched_, client.Stat("/f"));
  EXPECT_EQ(stats_a_.Calls("GETATTR"), after_first);  // cache hits
}

TEST_F(KclientTest, AttrCacheExpiresAfterTimeout) {
  MountOptions opts;
  opts.attr_timeout = Seconds(30);
  auto client = MakeClient(0, opts);
  ASSERT_TRUE(fs_.Create(fs_.root(), "f", 0644).has_value());
  (void)RunTask(sched_, client.Stat("/f"));
  const auto after_first = stats_a_.Calls("GETATTR");
  (void)RunTask(sched_, Advance(&sched_, Seconds(31)));
  (void)RunTask(sched_, client.Stat("/f"));
  EXPECT_GT(stats_a_.Calls("GETATTR"), after_first);
}

TEST_F(KclientTest, NoacDisablesAttrCache) {
  MountOptions opts;
  opts.noac = true;
  auto client = MakeClient(0, opts);
  ASSERT_TRUE(fs_.Create(fs_.root(), "f", 0644).has_value());
  (void)RunTask(sched_, client.Stat("/f"));
  const auto after_first = stats_a_.Calls("GETATTR");
  (void)RunTask(sched_, client.Stat("/f"));
  EXPECT_GT(stats_a_.Calls("GETATTR"), after_first);
}

TEST_F(KclientTest, DnlcAvoidsRepeatLookups) {
  auto client = MakeClient(0);
  auto d = fs_.Mkdir(fs_.root(), "dir", 0755);
  ASSERT_TRUE(fs_.Create(*d, "f", 0644).has_value());
  (void)RunTask(sched_, client.Stat("/dir/f"));
  EXPECT_EQ(stats_a_.Calls("LOOKUP"), 2u);  // dir + f
  (void)RunTask(sched_, client.Stat("/dir/f"));
  EXPECT_EQ(stats_a_.Calls("LOOKUP"), 2u);  // both from dnlc
}

TEST_F(KclientTest, OpenAlwaysRevalidates) {
  auto client = MakeClient(0);
  ASSERT_TRUE(fs_.Create(fs_.root(), "f", 0644).has_value());
  auto fd1 = RunTask(sched_, client.Open("/f", kRead));
  (void)RunTask(sched_, client.Close(*fd1));
  const auto count = stats_a_.Calls("GETATTR");
  auto fd2 = RunTask(sched_, client.Open("/f", kRead));
  (void)RunTask(sched_, client.Close(*fd2));
  // Close-to-open: the second open GETATTRs even though attrs are cached.
  EXPECT_GT(stats_a_.Calls("GETATTR"), count);
}

TEST_F(KclientTest, PageCacheServesRepeatedReads) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(1000, 3)).has_value());
  auto fd = RunTask(sched_, client.Open("/f", kRead));
  (void)RunTask(sched_, client.Read(*fd, 0, 1000));
  EXPECT_EQ(stats_a_.Calls("READ"), 1u);
  (void)RunTask(sched_, client.Read(*fd, 0, 1000));
  (void)RunTask(sched_, client.Read(*fd, 500, 100));
  EXPECT_EQ(stats_a_.Calls("READ"), 1u);  // all cached
}

TEST_F(KclientTest, StaleDataDroppedWhenMtimeChanges) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(100, 1)).has_value());

  auto fd = RunTask(sched_, client.Open("/f", kRead));
  auto first = RunTask(sched_, client.Read(*fd, 0, 100));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 1);

  // Another writer updates the file server-side (with a later mtime).
  (void)RunTask(sched_, Advance(&sched_, Seconds(31)));
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(100, 2)).has_value());

  // After the attribute cache expires, the mtime change is noticed and the
  // cached pages are discarded.
  (void)RunTask(sched_, Advance(&sched_, Seconds(31)));
  auto second = RunTask(sched_, client.Read(*fd, 0, 100));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 2);
  EXPECT_GE(stats_a_.Calls("READ"), 2u);
}

TEST_F(KclientTest, StaleViewWithinAttrTimeout) {
  // The weak-consistency window the paper's lock benchmark exploits: another
  // client's removal stays invisible until the attribute cache expires.
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "lock", 0644);
  (void)ino;
  auto exists1 = RunTask(sched_, client.Exists("/lock"));
  ASSERT_TRUE(exists1.has_value());
  EXPECT_TRUE(*exists1);

  ASSERT_TRUE(fs_.Remove(fs_.root(), "lock").has_value());

  auto exists2 = RunTask(sched_, client.Exists("/lock"));
  ASSERT_TRUE(exists2.has_value());
  EXPECT_TRUE(*exists2);  // stale: cached attrs + dnlc still fresh

  (void)RunTask(sched_, Advance(&sched_, Seconds(31)));
  auto exists3 = RunTask(sched_, client.Exists("/lock"));
  ASSERT_TRUE(exists3.has_value());
  EXPECT_FALSE(*exists3);  // caches expired; removal visible
}

TEST_F(KclientTest, OwnUnlinkVisibleImmediately) {
  auto client = MakeClient(0);
  ASSERT_TRUE(fs_.Create(fs_.root(), "f", 0644).has_value());
  ASSERT_TRUE(*RunTask(sched_, client.Exists("/f")));
  ASSERT_TRUE(RunTask(sched_, client.Unlink("/f")).has_value());
  EXPECT_FALSE(*RunTask(sched_, client.Exists("/f")));
}

TEST_F(KclientTest, OwnCreateKeepsSiblingDnlcEntries) {
  auto client = MakeClient(0);
  ASSERT_TRUE(fs_.Create(fs_.root(), "a", 0644).has_value());
  (void)RunTask(sched_, client.Stat("/a"));
  const auto lookups = stats_a_.Calls("LOOKUP");
  // Our own create changes the dir mtime, but must not invalidate "a".
  auto fd = RunTask(sched_, client.Open("/b", kCreateWrite));
  (void)RunTask(sched_, client.Close(*fd));
  (void)RunTask(sched_, client.Stat("/a"));
  EXPECT_EQ(stats_a_.Calls("LOOKUP"), lookups);
}

TEST_F(KclientTest, LinkReportsExist) {
  auto client = MakeClient(0);
  ASSERT_TRUE(fs_.Create(fs_.root(), "t", 0644).has_value());
  ASSERT_TRUE(fs_.Create(fs_.root(), "lock", 0644).has_value());
  auto r = RunTask(sched_, client.Link("/t", "/lock"));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), Status::kExist);
}

TEST_F(KclientTest, LinkSucceedsAndVisible) {
  auto client = MakeClient(0);
  ASSERT_TRUE(fs_.Create(fs_.root(), "t", 0644).has_value());
  ASSERT_TRUE(RunTask(sched_, client.Link("/t", "/lock")).has_value());
  EXPECT_TRUE(*RunTask(sched_, client.Exists("/lock")));
  auto attr = RunTask(sched_, client.Stat("/t"));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->nlink, 2u);
}

TEST_F(KclientTest, ExclusiveCreateRace) {
  auto a = MakeClient(0);
  auto b = MakeClient(1);
  OpenFlags excl{.read = true, .write = true, .create = true, .exclusive = true};
  auto fd_a = RunTask(sched_, a.Open("/lock", excl));
  ASSERT_TRUE(fd_a.has_value());
  auto fd_b = RunTask(sched_, b.Open("/lock", excl));
  ASSERT_FALSE(fd_b.has_value());
  EXPECT_EQ(fd_b.error(), Status::kExist);
}

TEST_F(KclientTest, TruncateOnOpen) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(100, 1)).has_value());
  OpenFlags trunc{.read = true, .write = true, .truncate = true};
  auto fd = RunTask(sched_, client.Open("/f", trunc));
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(fs_.GetAttr(*ino)->size, 0u);
  auto attr = RunTask(sched_, client.Stat("/f"));
  EXPECT_EQ(attr->size, 0u);
}

TEST_F(KclientTest, StatSeesOwnBufferedWrites) {
  auto client = MakeClient(0);
  auto fd = RunTask(sched_, client.Open("/f", kCreateWrite));
  (void)RunTask(sched_, client.Write(*fd, 0, Bytes(500, 1)));
  auto attr = RunTask(sched_, client.Stat("/f"));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->size, 500u);  // visible before flush
}

TEST_F(KclientTest, ReadModifyWriteFetchesExistingBlock) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(1000, 7)).has_value());
  auto fd = RunTask(sched_, client.Open("/f", kWrite));
  // Overwrite bytes [10, 20) — must preserve surrounding data.
  (void)RunTask(sched_, client.Write(*fd, 10, Bytes(10, 9)));
  (void)RunTask(sched_, client.Close(*fd));
  auto data = fs_.Read(*ino, 0, 1000);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->data[9], 7);
  EXPECT_EQ(data->data[10], 9);
  EXPECT_EQ(data->data[19], 9);
  EXPECT_EQ(data->data[20], 7);
}

TEST_F(KclientTest, MultiBlockFileReadsInChunks) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "big", 0644);
  const std::size_t size = 100 * 1024;  // 4 blocks at 32 KB
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(size, 5)).has_value());
  auto fd = RunTask(sched_, client.Open("/big", kRead));
  auto data = RunTask(sched_, client.Read(*fd, 0, size));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->size(), size);
  EXPECT_EQ(stats_a_.Calls("READ"), 4u);
}

TEST_F(KclientTest, EvictionRereadsAfterPressure) {
  MountOptions opts;
  opts.max_cached_bytes = 64 * 1024;  // 2 blocks
  auto client = MakeClient(0, opts);
  auto ino = fs_.Create(fs_.root(), "big", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(160 * 1024, 5)).has_value());
  auto fd = RunTask(sched_, client.Open("/big", kRead));
  (void)RunTask(sched_, client.Read(*fd, 0, 160 * 1024));
  const auto cold = stats_a_.Calls("READ");
  EXPECT_EQ(cold, 5u);
  (void)RunTask(sched_, client.Read(*fd, 0, 160 * 1024));
  EXPECT_GT(stats_a_.Calls("READ"), cold);  // evicted blocks re-fetched
  EXPECT_LE(client.CachedBytes(), 96 * 1024u);
}

// The eviction list holds one entry per cached block. A block dropped as
// stale used to leave its entry behind, and that entry later evicted the
// re-fetched block at the dropped block's place in the queue, ahead of
// blocks cached after it.
TEST_F(KclientTest, RefetchedBlockKeepsItsOwnEvictionPlace) {
  MountOptions opts;
  opts.max_cached_bytes = 2 * memfs::kBlockSize;
  auto client = MakeClient(0, opts);
  auto other = MakeClient(1);
  for (const char* name : {"a", "b", "c"}) {
    auto ino = fs_.Create(fs_.root(), name, 0644);
    ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(memfs::kBlockSize, 1)).has_value());
  }
  auto read_block = [&](Fd fd) {
    auto data = RunTask(sched_, client.Read(fd, 0, memfs::kBlockSize));
    ASSERT_TRUE(data.has_value());
    ASSERT_EQ(data->size(), memfs::kBlockSize);
  };

  auto fd_a = RunTask(sched_, client.Open("/a", kRead));
  auto fd_b = RunTask(sched_, client.Open("/b", kRead));
  ASSERT_TRUE(fd_a.has_value() && fd_b.has_value());
  read_block(*fd_a);
  read_block(*fd_b);

  // Another client rewrites a; reopening a revalidates and drops its block.
  auto wfd = RunTask(sched_, other.Open("/a", kWrite));
  ASSERT_TRUE(wfd.has_value());
  ASSERT_TRUE(
      RunTask(sched_, other.Write(*wfd, 0, Bytes(memfs::kBlockSize, 2))).has_value());
  ASSERT_TRUE(RunTask(sched_, other.Close(*wfd)).has_value());
  auto fd_a2 = RunTask(sched_, client.Open("/a", kRead));
  ASSERT_TRUE(fd_a2.has_value());
  EXPECT_EQ(client.CachedBytes(), memfs::kBlockSize);  // only b's block left

  // Re-fetch a, then read c: three blocks for two, so the oldest, b's, goes.
  read_block(*fd_a2);
  auto fd_c = RunTask(sched_, client.Open("/c", kRead));
  ASSERT_TRUE(fd_c.has_value());
  read_block(*fd_c);
  EXPECT_EQ(client.CachedBytes(), 2 * memfs::kBlockSize);

  const std::uint64_t misses = client.stats().page_misses;
  read_block(*fd_a2);
  EXPECT_EQ(client.stats().page_misses, misses) << "a's re-fetched block was evicted";
  read_block(*fd_b);
  EXPECT_EQ(client.stats().page_misses, misses + 1) << "b's block should have gone";
}

// Regression: with a zero-byte page cache every fetched block is immediately
// evictable, and eviction used to run before the block's bytes were copied
// into the result — returning freed memory instead of file data.
TEST_F(KclientTest, ZeroByteCacheReadsReturnFileData) {
  MountOptions opts;
  opts.max_cached_bytes = 0;
  auto client = MakeClient(0, opts);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  const std::size_t size = 96 * 1024;  // 3 blocks at 32 KB
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(size, 0x5A)).has_value());
  auto fd = RunTask(sched_, client.Open("/f", kRead));
  ASSERT_TRUE(fd.has_value());
  for (int pass = 0; pass < 2; ++pass) {
    auto data = RunTask(sched_, client.Read(*fd, 0, size));
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(*data, Bytes(size, 0x5A)) << "pass " << pass;
  }
  EXPECT_EQ(client.CachedBytes(), 0u);  // nothing may stay resident
}

sim::Task<void> UnlinkAfter(sim::Scheduler* sched, KernelClient* client,
                            std::string path, Duration d, bool* done) {
  co_await sim::Sleep(*sched, d);
  (void)co_await client->Unlink(std::move(path));
  *done = true;
}

sim::Task<void> FsyncAndDiscard(KernelClient* client, Fd fd, bool* done) {
  (void)co_await client->Fsync(fd);
  *done = true;
}

// Regression: FlushFile used to range-for over the file's block map across
// the WRITE awaits; an Unlink landing while the flush was parked dropped the
// whole cache entry out from under the live iterator.
TEST_F(KclientTest, UnlinkDuringFsyncDropsEntryCleanly) {
  auto client = MakeClient(0);
  auto fd = RunTask(sched_, client.Open("/f", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  ASSERT_TRUE(
      RunTask(sched_, client.Write(*fd, 0, Bytes(96 * 1024, 0x11))).has_value());

  bool flushed = false, unlinked = false;
  sim::Spawn(FsyncAndDiscard(&client, *fd, &flushed));
  sim::Spawn(UnlinkAfter(&sched_, &client, "/f", Milliseconds(5), &unlinked));
  while ((!flushed || !unlinked) && !sched_.Idle()) sched_.Run(1);
  EXPECT_TRUE(flushed);
  EXPECT_TRUE(unlinked);
  EXPECT_EQ(client.CachedBytes(), 0u);  // the drop reclaimed everything
}

// Regression: Read held a reference to the file's cache entry across the
// block-fetch await; an Unlink landing mid-fetch erased the map node the
// reference aliased. The assembled bytes must still come back intact.
TEST_F(KclientTest, UnlinkDuringColdReadStillReturnsData) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(ino.has_value());
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(64 * 1024, 0x07)).has_value());
  auto fd = RunTask(sched_, client.Open("/f", kRead));
  ASSERT_TRUE(fd.has_value());
  // Warm block 0 and the attribute cache so the big read suspends only on
  // block 1's fetch — after the cache-entry reference exists.
  ASSERT_TRUE(RunTask(sched_, client.Read(*fd, 0, 1024)).has_value());

  std::optional<VfsResult<Bytes>> out;
  bool unlinked = false;
  sim::Spawn(testutil::CaptureInto(client.Read(*fd, 0, 64 * 1024), &out));
  sim::Spawn(UnlinkAfter(&sched_, &client, "/f", Milliseconds(5), &unlinked));
  while ((!out.has_value() || !unlinked) && !sched_.Idle()) sched_.Run(1);
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ(**out, Bytes(64 * 1024, 0x07));
}

// Regression: Write held the same entry reference across its
// read-modify-write fetch; an Unlink landing mid-fetch dangled it.
TEST_F(KclientTest, UnlinkDuringReadModifyWriteCompletes) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(64 * 1024, 0x07)).has_value());
  auto fd = RunTask(sched_, client.Open("/f", kWrite));
  ASSERT_TRUE(fd.has_value());
  // Warm the attribute cache so the write's only suspend is the RMW fetch.
  ASSERT_TRUE(RunTask(sched_, client.Stat("/f")).has_value());

  // A partial overwrite of existing server data forces the RMW fetch. The
  // payload must outlive the spawned frame — Write takes it by reference.
  const Bytes payload(10, 0x22);
  std::optional<VfsResult<std::uint32_t>> out;
  bool unlinked = false;
  sim::Spawn(testutil::CaptureInto(client.Write(*fd, 100, payload), &out));
  sim::Spawn(UnlinkAfter(&sched_, &client, "/f", Milliseconds(5), &unlinked));
  while ((!out.has_value() || !unlinked) && !sched_.Idle()) sched_.Run(1);
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ(**out, 10u);
}

TEST_F(KclientTest, MkdirRmdirReadDir) {
  auto client = MakeClient(0);
  ASSERT_TRUE(RunTask(sched_, client.Mkdir("/d")).has_value());
  auto fd = RunTask(sched_, client.Open("/d/x", kCreateWrite));
  (void)RunTask(sched_, client.Close(*fd));
  auto names = RunTask(sched_, client.ReadDir("/d"));
  ASSERT_TRUE(names.has_value());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "x");
  ASSERT_TRUE(RunTask(sched_, client.Unlink("/d/x")).has_value());
  ASSERT_TRUE(RunTask(sched_, client.Rmdir("/d")).has_value());
  EXPECT_FALSE(*RunTask(sched_, client.Exists("/d")));
}

TEST_F(KclientTest, RenameUpdatesNamespace) {
  auto client = MakeClient(0);
  ASSERT_TRUE(fs_.Create(fs_.root(), "old", 0644).has_value());
  ASSERT_TRUE(RunTask(sched_, client.Rename("/old", "/new")).has_value());
  EXPECT_FALSE(*RunTask(sched_, client.Exists("/old")));
  EXPECT_TRUE(*RunTask(sched_, client.Exists("/new")));
}

TEST_F(KclientTest, DropCachesForcesRefetch) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(100, 1)).has_value());
  auto fd = RunTask(sched_, client.Open("/f", kRead));
  (void)RunTask(sched_, client.Read(*fd, 0, 100));
  const auto reads = stats_a_.Calls("READ");
  const auto lookups = stats_a_.Calls("LOOKUP");
  client.DropCaches();
  auto fd2 = RunTask(sched_, client.Open("/f", kRead));
  (void)RunTask(sched_, client.Read(*fd2, 0, 100));
  EXPECT_GT(stats_a_.Calls("READ"), reads);
  EXPECT_GT(stats_a_.Calls("LOOKUP"), lookups);
}

TEST_F(KclientTest, MissingFileReportsNoEnt) {
  auto client = MakeClient(0);
  auto r = RunTask(sched_, client.Open("/missing", kRead));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), Status::kNoEnt);
}

TEST_F(KclientTest, ReadAcrossEofClamps) {
  auto client = MakeClient(0);
  auto ino = fs_.Create(fs_.root(), "f", 0644);
  ASSERT_TRUE(fs_.Write(*ino, 0, Bytes(10, 1)).has_value());
  auto fd = RunTask(sched_, client.Open("/f", kRead));
  auto data = RunTask(sched_, client.Read(*fd, 5, 100));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->size(), 5u);
  auto past = RunTask(sched_, client.Read(*fd, 100, 10));
  ASSERT_TRUE(past.has_value());
  EXPECT_TRUE(past->empty());
}

}  // namespace
}  // namespace gvfs::kclient
