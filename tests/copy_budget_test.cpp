// Copy budget of the data plane: how many block-sized allocations one 32 KB
// block costs on its way from the application to memfs and back out of the
// proxy disk cache, through perfbench postmark-deleg's session (delegation,
// write-through, a write window of 8, read-ahead of 8 blocks, a noac kernel
// mount). Each copy of a block needs a buffer of its own, so counting the
// allocations of 16 KB or more counts the copies.
//
// This binary replaces the global allocation functions with counting ones,
// as perfbench's harness does; no other test links them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "test_util.h"
#include "workloads/testbed.h"

namespace {

constexpr std::size_t kLarge = 16 * 1024;

// Plain counters: the simulator runs on one thread.
std::uint64_t g_large_allocs = 0;
std::uint64_t g_large_bytes = 0;

void* CountedAlloc(std::size_t size) {
  if (size >= kLarge) {
    ++g_large_allocs;
    g_large_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gvfs::workloads {
namespace {

using kclient::OpenFlags;
using testutil::RunTask;

constexpr std::size_t kBlock = 32 * 1024;
constexpr OpenFlags kRead{};
constexpr OpenFlags kCreateWrite{.read = true, .write = true, .create = true};

/// Large allocations since construction.
struct LargeAllocs {
  std::uint64_t count = g_large_allocs;
  std::uint64_t bytes = g_large_bytes;

  std::uint64_t CountSince() const { return g_large_allocs - count; }
  std::uint64_t BytesSince() const { return g_large_bytes - bytes; }
};

class CopyBudgetTest : public ::testing::Test {
 protected:
  CopyBudgetTest() {
    bed_.AddWanClient();
    proxy::SessionConfig config;
    config.model = proxy::ConsistencyModel::kDelegationCallback;
    config.cache_mode = proxy::CacheMode::kReadOnly;  // write-through
    config.wb_window = 8;
    config.read_ahead = 8;
    kclient::MountOptions options;
    options.noac = true;
    session_ = &bed_.CreateSession(config, {0}, options);
    // Warm-up: the first file settles the session's maps, the delegation
    // machinery and the buffer arena.
    WriteFile("/warm");
  }

  kclient::KernelClient& mount() { return session_->mount(0); }

  void WriteFile(const std::string& path) {
    auto fd = RunTask(bed_.sched(), mount().Open(path, kCreateWrite));
    ASSERT_TRUE(fd.has_value());
    ASSERT_TRUE(RunTask(bed_.sched(), mount().Write(*fd, 0, block_)).has_value());
    ASSERT_TRUE(RunTask(bed_.sched(), mount().Close(*fd)).has_value());
  }

  /// The application's block, allocated before any count starts.
  const Bytes block_ = Bytes(kBlock, 7);
  Testbed bed_;
  GvfsSession* session_ = nullptr;
};

TEST_F(CopyBudgetTest, WritingABlockCopiesItTwice) {
  // Application to page cache, page cache to the WRITE message; the proxies
  // forward that message, and the disk cache and memfs keep slices of it.
  const LargeAllocs before;
  WriteFile("/f");
  EXPECT_LE(before.CountSince(), 2u) << before.BytesSince() << " bytes";
  auto ino = bed_.fs().ResolvePath("/f");
  ASSERT_TRUE(ino.has_value());
  auto stored = bed_.fs().Read(*ino, 0, kBlock);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->data, block_);
}

TEST_F(CopyBudgetTest, ReadingABlockFromTheDiskCacheCopiesItTwice) {
  // The proxy encodes its READ reply (one copy), the page cache keeps a
  // slice of it, and the read hands the application its own bytes.
  WriteFile("/f");
  mount().DropCaches();
  const std::uint64_t wan_reads = session_->stats->Calls("READ");
  const LargeAllocs before;
  auto fd = RunTask(bed_.sched(), mount().Open("/f", kRead));
  ASSERT_TRUE(fd.has_value());
  auto data = RunTask(bed_.sched(), mount().Read(*fd, 0, kBlock));
  ASSERT_TRUE(data.has_value());
  ASSERT_TRUE(RunTask(bed_.sched(), mount().Close(*fd)).has_value());
  EXPECT_LE(before.CountSince(), 2u) << before.BytesSince() << " bytes";
  EXPECT_EQ(*data, block_);
  EXPECT_EQ(session_->stats->Calls("READ"), wan_reads);  // served from the disk cache
}

}  // namespace
}  // namespace gvfs::workloads
