// Unit tests for the proxy disk cache and GVFS protocol codecs.
#include <gtest/gtest.h>

#include "gvfs/disk_cache.h"
#include "gvfs/proto.h"

namespace gvfs::proxy {
namespace {

using nfs3::Fh;

nfs3::Fattr MakeAttr(std::uint64_t ino, std::uint64_t size, SimTime mtime) {
  nfs3::Fattr attr;
  attr.fileid = ino;
  attr.size = size;
  attr.mtime = mtime;
  return attr;
}

TEST(DiskCacheTest, AttrStoreAndInvalidate) {
  DiskCache cache;
  Fh fh{1, 5};
  EXPECT_EQ(cache.ValidAttr(fh), nullptr);
  cache.StoreAttr(fh, MakeAttr(5, 10, Seconds(1)), Seconds(1));
  ASSERT_NE(cache.ValidAttr(fh), nullptr);
  EXPECT_EQ(cache.ValidAttr(fh)->attr.size, 10u);

  cache.InvalidateAttr(fh);
  EXPECT_EQ(cache.ValidAttr(fh), nullptr);
  // The entry survives invalidation (disk contents persist).
  EXPECT_NE(cache.AnyAttr(fh), nullptr);
}

TEST(DiskCacheTest, InvalidateAllAttrs) {
  DiskCache cache;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    cache.StoreAttr(Fh{1, i}, MakeAttr(i, 0, 0), 0);
  }
  cache.InvalidateAllAttrs();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(cache.ValidAttr(Fh{1, i}), nullptr);
  }
  EXPECT_EQ(cache.AttrCount(), 5u);
}

TEST(DiskCacheTest, LookupValidityTiedToDirAttrs) {
  DiskCache cache;
  Fh dir{1, 1}, child{1, 2};
  // Without valid dir attrs the entry cannot be stored (unvalidatable).
  cache.StoreLookup(dir, "f", child);
  cache.StoreAttr(dir, MakeAttr(1, 0, Seconds(1)), 0);
  EXPECT_EQ(cache.ValidLookup(dir, "f"), nullptr);

  cache.StoreLookup(dir, "f", child);
  ASSERT_NE(cache.ValidLookup(dir, "f"), nullptr);
  EXPECT_EQ(*cache.ValidLookup(dir, "f"), child);

  // Invalidated dir attrs hide the entry; a refreshed dir with a *changed*
  // mtime keeps it hidden (stale), matching kernel dnlc semantics.
  cache.InvalidateAttr(dir);
  EXPECT_EQ(cache.ValidLookup(dir, "f"), nullptr);
  cache.StoreAttr(dir, MakeAttr(1, 0, Seconds(2)), 0);
  EXPECT_EQ(cache.ValidLookup(dir, "f"), nullptr);
  // Same mtime as recorded -> trusted again.
  cache.StoreAttr(dir, MakeAttr(1, 0, Seconds(1)), 0);
  cache.StoreLookup(dir, "f", child);
  cache.StoreAttr(dir, MakeAttr(1, 0, Seconds(1)), 0);
  EXPECT_NE(cache.ValidLookup(dir, "f"), nullptr);
}

TEST(DiskCacheTest, NegativeLookupEntries) {
  DiskCache cache;
  Fh dir{1, 1};
  cache.StoreAttr(dir, MakeAttr(1, 0, 0), 0);
  cache.StoreLookup(dir, "ghost", Fh{});
  const Fh* entry = cache.ValidLookup(dir, "ghost");
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->valid());
}

TEST(DiskCacheTest, BlockStoreAndDirtyTracking) {
  DiskCache cache;
  Fh fh{1, 3};
  cache.StoreBlock(fh, 0, Bytes(100, 1), /*dirty=*/false);
  cache.WriteIntoBlock(fh, 1, 0, Bytes(50, 2));
  EXPECT_EQ(cache.DirtyBlockCount(fh), 1u);
  auto offsets = cache.DirtyOffsets(fh);
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_EQ(offsets[0], memfs::kBlockSize);

  cache.MarkClean(fh, 1);
  EXPECT_EQ(cache.DirtyBlockCount(fh), 0u);
}

TEST(DiskCacheTest, WriteIntoBlockMergesData) {
  DiskCache cache;
  Fh fh{1, 3};
  cache.StoreBlock(fh, 0, Bytes(100, 1), false);
  cache.WriteIntoBlock(fh, 0, 10, Bytes(5, 9));
  const DiskCache::Block* block = cache.FindBlock(fh, 0);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->data[9], 1);
  EXPECT_EQ(block->data[10], 9);
  EXPECT_EQ(block->data[14], 9);
  EXPECT_EQ(block->data[15], 1);
  EXPECT_TRUE(block->dirty);
}

TEST(DiskCacheTest, ObserveMtimeDropsCleanKeepsDirty) {
  DiskCache cache;
  Fh fh{1, 3};
  auto& fe = cache.FileFor(fh);
  fe.mtime_seen = Seconds(1);
  cache.StoreBlock(fh, 0, Bytes(10, 1), /*dirty=*/false);
  cache.WriteIntoBlock(fh, 1, 0, Bytes(10, 2));  // dirty

  cache.ObserveMtime(fh, Seconds(2), 100, /*own_write=*/false);
  EXPECT_EQ(cache.FindBlock(fh, 0), nullptr);  // clean dropped
  ASSERT_NE(cache.FindBlock(fh, 1), nullptr);  // dirty kept
  EXPECT_EQ(cache.FileFor(fh).mtime_seen, Seconds(2));
}

TEST(DiskCacheTest, ObserveOwnWriteKeepsData) {
  DiskCache cache;
  Fh fh{1, 3};
  auto& fe = cache.FileFor(fh);
  fe.mtime_seen = Seconds(1);
  cache.StoreBlock(fh, 0, Bytes(10, 1), false);
  cache.ObserveMtime(fh, Seconds(2), 100, /*own_write=*/true);
  EXPECT_NE(cache.FindBlock(fh, 0), nullptr);
}

TEST(DiskCacheTest, FilesWithDirtyData) {
  DiskCache cache;
  cache.StoreBlock(Fh{1, 1}, 0, Bytes(10, 1), false);
  cache.WriteIntoBlock(Fh{1, 2}, 0, 0, Bytes(10, 2));
  cache.WriteIntoBlock(Fh{1, 3}, 0, 0, Bytes(10, 3));
  auto dirty = cache.FilesWithDirtyData();
  EXPECT_EQ(dirty.size(), 2u);
}

TEST(DiskCacheTest, CrashPreservesDataInvalidatesMetadata) {
  DiskCache cache;
  Fh fh{1, 4};
  cache.StoreAttr(fh, MakeAttr(4, 10, 0), 0);
  cache.WriteIntoBlock(fh, 0, 0, Bytes(10, 7));
  cache.Crash();
  EXPECT_EQ(cache.ValidAttr(fh), nullptr);
  ASSERT_NE(cache.FindBlock(fh, 0), nullptr);
  EXPECT_TRUE(cache.FindBlock(fh, 0)->dirty);  // dirty flags reconstructed
}

TEST(DiskCacheTest, CachedBytesAccounting) {
  DiskCache cache;
  Fh fh{1, 4};
  cache.StoreBlock(fh, 0, Bytes(100, 1), false);
  EXPECT_EQ(cache.CachedBytes(), 100u);
  cache.StoreBlock(fh, 0, Bytes(200, 1), false);  // replace
  EXPECT_EQ(cache.CachedBytes(), 200u);
  cache.DropFileData(fh);
  EXPECT_EQ(cache.CachedBytes(), 0u);
}

// --- protocol codecs ---

TEST(GvfsProtoTest, GetInvRoundTrip) {
  GetInvRes res;
  res.new_timestamp = 42;
  res.force_invalidate = false;
  res.poll_again = true;
  res.handles = {Fh{1, 2}, Fh{1, 3}};
  auto parsed = nfs3::Parse<GetInvRes>(nfs3::Serialize(res));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->new_timestamp, 42u);
  EXPECT_TRUE(parsed->poll_again);
  ASSERT_EQ(parsed->handles.size(), 2u);
  EXPECT_EQ(parsed->handles[1], (Fh{1, 3}));
}

TEST(GvfsProtoTest, CallbackRoundTrip) {
  CallbackArgs args;
  args.file = Fh{1, 9};
  args.type = CallbackType::kRecallWrite;
  args.has_wanted_offset = true;
  args.wanted_offset = 65536;
  auto parsed = nfs3::Parse<CallbackArgs>(nfs3::Serialize(args));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, CallbackType::kRecallWrite);
  EXPECT_EQ(parsed->wanted_offset, 65536u);

  CallbackRes res;
  res.pending_offsets = {0, 32768, 65536};
  auto parsed_res = nfs3::Parse<CallbackRes>(nfs3::Serialize(res));
  ASSERT_TRUE(parsed_res.has_value());
  EXPECT_EQ(parsed_res->pending_offsets.size(), 3u);
}

TEST(GvfsProtoTest, RecoveryRoundTrip) {
  RecoveryRes res;
  res.dirty_files = {Fh{1, 7}};
  auto parsed = nfs3::Parse<RecoveryRes>(nfs3::Serialize(res));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->dirty_files.size(), 1u);
  EXPECT_EQ(parsed->dirty_files[0], (Fh{1, 7}));
}

TEST(GvfsProtoTest, GrantSuffixAppendExtract) {
  Buf body = Bytes{1, 2, 3, 4};
  GrantSuffix suffix;
  suffix.delegation = DelegationType::kWrite;
  suffix.AppendTo(body);
  EXPECT_EQ(body.size(), 4u + GrantSuffix::kWireBytes);

  GrantSuffix extracted = GrantSuffix::ExtractFrom(body);
  EXPECT_EQ(extracted.delegation, DelegationType::kWrite);
  EXPECT_EQ(body, (Bytes{1, 2, 3, 4}));  // suffix stripped
}

TEST(GvfsProtoTest, GrantSuffixAbsent) {
  Buf body = Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9};
  GrantSuffix extracted = GrantSuffix::ExtractFrom(body);
  EXPECT_EQ(extracted.delegation, DelegationType::kNone);
  EXPECT_EQ(body.size(), 9u);  // untouched
}

TEST(GvfsProtoTest, GrantSuffixShortBody) {
  Buf body = Bytes{1};
  GrantSuffix extracted = GrantSuffix::ExtractFrom(body);
  EXPECT_EQ(extracted.delegation, DelegationType::kNone);
  EXPECT_EQ(body.size(), 1u);
}

}  // namespace
}  // namespace gvfs::proxy
