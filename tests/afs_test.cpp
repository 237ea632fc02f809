// Tests for the AFS-style reference DFS: whole-file caching, store-on-close,
// callback promises, and lock-benchmark compatibility.
#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/lock_bench.h"
#include "workloads/testbed.h"

namespace gvfs::afs {
namespace {

using kclient::OpenFlags;
using nfs3::Status;
using testutil::RunTask;
using workloads::Testbed;

constexpr OpenFlags kRead{};
constexpr OpenFlags kWrite{.read = true, .write = true};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

class AfsTest : public ::testing::Test {
 protected:
  AfsTest() {
    bed_.AddWanClient();
    bed_.AddWanClient();
  }

  Testbed bed_;
};

TEST_F(AfsTest, CreateWriteCloseReadBack) {
  auto& a = bed_.AfsMount(0);
  auto fd = RunTask(bed_.sched(), a.Open("/f", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(100, 7)));
  ASSERT_TRUE(RunTask(bed_.sched(), a.Close(*fd)).has_value());

  // Store-on-close: the server has the data.
  auto ino = bed_.fs().ResolvePath("/f");
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(bed_.fs().GetAttr(*ino)->size, 100u);

  auto& b = bed_.AfsMount(1);
  auto fd_b = RunTask(bed_.sched(), b.Open("/f", kRead));
  ASSERT_TRUE(fd_b.has_value());
  auto data = RunTask(bed_.sched(), b.Read(*fd_b, 0, 100));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ((*data)[0], 7);
}

TEST_F(AfsTest, CloseReportsAStoreTheServerRejects) {
  // B removes the file A is writing; the store on A's close finds no file,
  // and the close says so instead of losing the data silently.
  auto& a = bed_.AfsMount(0);
  auto& b = bed_.AfsMount(1);
  auto fd = RunTask(bed_.sched(), a.Open("/f", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  ASSERT_TRUE(RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(100, 7))).has_value());
  ASSERT_TRUE(RunTask(bed_.sched(), b.Unlink("/f")).has_value());
  auto closed = RunTask(bed_.sched(), a.Close(*fd));
  ASSERT_FALSE(closed.has_value());
  EXPECT_EQ(closed.error(), Status::kNoEnt);
}

TEST_F(AfsTest, StatusCacheValidUntilBroken) {
  auto& a = bed_.AfsMount(0);
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());

  (void)RunTask(bed_.sched(), a.Stat("/f"));
  const auto hits_before = a.status_cache_hits();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunTask(bed_.sched(), a.Stat("/f")).has_value());
  }
  EXPECT_EQ(a.status_cache_hits(), hits_before + 10);  // all local
}

TEST_F(AfsTest, MutationBreaksOtherClientsPromise) {
  auto& a = bed_.AfsMount(0);
  auto& b = bed_.AfsMount(1);

  // b caches a negative status for the lock path.
  EXPECT_FALSE(*RunTask(bed_.sched(), b.Exists("/lock")));
  EXPECT_FALSE(*RunTask(bed_.sched(), b.Exists("/lock")));

  // a creates the file: b's promise is broken, so b sees it immediately.
  auto fd = RunTask(bed_.sched(), a.Open("/lock", kCreateWrite));
  ASSERT_TRUE(fd.has_value());
  (void)RunTask(bed_.sched(), a.Close(*fd));
  EXPECT_GE(b.callback_breaks_received(), 1u);
  EXPECT_TRUE(*RunTask(bed_.sched(), b.Exists("/lock")));

  // a removes it: visible immediately again.
  ASSERT_TRUE(RunTask(bed_.sched(), a.Unlink("/lock")).has_value());
  EXPECT_FALSE(*RunTask(bed_.sched(), b.Exists("/lock")));
}

TEST_F(AfsTest, WholeFileRefetchAfterRemoteStore) {
  auto& a = bed_.AfsMount(0);
  auto& b = bed_.AfsMount(1);

  auto fd = RunTask(bed_.sched(), a.Open("/f", kCreateWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd, 0, Bytes(50, 1)));
  (void)RunTask(bed_.sched(), a.Close(*fd));

  auto fd_b = RunTask(bed_.sched(), b.Open("/f", kRead));
  auto first = RunTask(bed_.sched(), b.Read(*fd_b, 0, 50));
  EXPECT_EQ((*first)[0], 1);
  (void)RunTask(bed_.sched(), b.Close(*fd_b));

  // a rewrites; b's cached copy is invalidated by the break and refetched
  // whole on the next open.
  auto fd2 = RunTask(bed_.sched(), a.Open("/f", kWrite));
  (void)RunTask(bed_.sched(), a.Write(*fd2, 0, Bytes(50, 2)));
  (void)RunTask(bed_.sched(), a.Close(*fd2));

  auto fd_b2 = RunTask(bed_.sched(), b.Open("/f", kRead));
  auto second = RunTask(bed_.sched(), b.Read(*fd_b2, 0, 50));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 2);
}

TEST_F(AfsTest, ExclusiveCreateFailsOnExisting) {
  auto& a = bed_.AfsMount(0);
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "f", 0644).has_value());
  OpenFlags excl{.read = true, .write = true, .create = true, .exclusive = true};
  auto fd = RunTask(bed_.sched(), a.Open("/f", excl));
  ASSERT_FALSE(fd.has_value());
  EXPECT_EQ(fd.error(), Status::kExist);
}

TEST_F(AfsTest, LinkVisibleToOthersImmediately) {
  auto& a = bed_.AfsMount(0);
  auto& b = bed_.AfsMount(1);
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "t", 0644).has_value());

  EXPECT_FALSE(*RunTask(bed_.sched(), b.Exists("/lock")));
  ASSERT_TRUE(RunTask(bed_.sched(), a.Link("/t", "/lock")).has_value());
  EXPECT_TRUE(*RunTask(bed_.sched(), b.Exists("/lock")));
  // Duplicate link reports EEXIST.
  auto again = RunTask(bed_.sched(), b.Link("/t", "/lock"));
  ASSERT_FALSE(again.has_value());
  EXPECT_EQ(again.error(), Status::kExist);
}

TEST_F(AfsTest, ReadDirListsNames) {
  auto& a = bed_.AfsMount(0);
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "x", 0644).has_value());
  ASSERT_TRUE(bed_.fs().Create(bed_.fs().root(), "y", 0644).has_value());
  auto names = RunTask(bed_.sched(), a.ReadDir("/"));
  ASSERT_TRUE(names.has_value());
  EXPECT_EQ(names->size(), 2u);
}

TEST_F(AfsTest, LockBenchIsFairOnAfs) {
  Testbed bed;
  std::vector<kclient::Vfs*> mounts;
  for (int i = 0; i < 3; ++i) {
    bed.AddWanClient();
    mounts.push_back(&bed.AfsMount(i));
  }
  workloads::LockBenchConfig config;
  config.acquisitions_per_client = 3;
  config.hold_time = Seconds(2);
  auto report =
      RunTask(bed.sched(), workloads::RunLockBench(bed.sched(), mounts, config));
  EXPECT_EQ(report.acquisition_order.size(), 9u);
  // Callback promises give strong consistency: the lock circulates fairly.
  EXPECT_LE(report.MaxConsecutiveByOneClient(), 2);
}

}  // namespace
}  // namespace gvfs::afs
