#include <gtest/gtest.h>

#include <set>

#include "common/buf.h"
#include "common/expected.h"
#include "common/rng.h"
#include "common/types.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/flat_map.h"
#include "nfs3/proto.h"

namespace gvfs {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_EQ(Milliseconds(40), 40'000'000);
  EXPECT_EQ(Microseconds(3), 3'000);
  EXPECT_EQ(SecondsF(0.5), 500'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Milliseconds(1500)), 1.5);
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int, std::string> e = 42;
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int, std::string> e = Unexpected(std::string("boom"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "boom");
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(ExpectedTest, VoidSpecialization) {
  Expected<void, int> ok{};
  EXPECT_TRUE(ok.has_value());
  Expected<void, int> bad = Unexpected(5);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), 5);
}

TEST(ExpectedTest, MoveOnlyValue) {
  Expected<std::unique_ptr<int>, int> e = std::make_unique<int>(9);
  ASSERT_TRUE(e.has_value());
  auto p = std::move(e).value();
  EXPECT_EQ(*p, 9);
}

TEST(ExpectedTest, ArrowOperator) {
  Expected<std::string, int> e = std::string("hello");
  EXPECT_EQ(e->size(), 5u);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, RangeInclusiveBounds) {
  Rng r(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = r.Range(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, BelowBound) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Below(10), 10u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- FlatMap ---------------------------------------------------------------

TEST(FlatMapTest, InsertFindEraseBasics) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.Empty());
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_FALSE(m.Erase(7));

  m[7] = 70;
  m[8] = 80;
  EXPECT_EQ(m.Size(), 2u);
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  m[7] = 71;  // overwrite through operator[]
  EXPECT_EQ(*m.Find(7), 71);
  EXPECT_EQ(m.Size(), 2u);

  EXPECT_TRUE(m.Erase(7));
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_FALSE(m.Erase(7));
  EXPECT_EQ(m.Size(), 1u);
  EXPECT_EQ(*m.Find(8), 80);
}

TEST(FlatMapTest, ExtractMovesValueOut) {
  FlatMap<std::uint32_t, std::unique_ptr<int>> m;
  m[5] = std::make_unique<int>(55);
  std::unique_ptr<int> out;
  EXPECT_FALSE(m.Extract(6, &out));
  EXPECT_TRUE(m.Extract(5, &out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 55);
  EXPECT_EQ(m.Find(5), nullptr);
  EXPECT_TRUE(m.Empty());
}

// Identity hash exposes the probe geometry: keys sharing a home slot form a
// cluster we can aim at the end of the table to exercise the wrapped case of
// backward-shift deletion.
struct IdentityHash {
  std::uint64_t operator()(std::uint64_t k) const { return k; }
};

TEST(FlatMapTest, BackwardShiftCompactsWrappedCluster) {
  FlatMap<std::uint64_t, int, IdentityHash> m;
  m[0] = 0;  // occupy slot 0 so the cluster's wrap is visible
  // Table capacity is 16 after the first insert: keys 14, 30, 46 all have
  // home slot 14, landing at slots 14, 15, 0(wrapped past key 0... probing
  // finds 1). Erasing 14 must backward-shift BOTH collided keys across the
  // wrap boundary, leaving every survivor findable.
  m[14] = 14;
  m[30] = 30;
  m[46] = 46;
  m[15] = 15;  // home 15, displaced by the cluster
  ASSERT_EQ(m.Size(), 5u);

  EXPECT_TRUE(m.Erase(14));
  EXPECT_EQ(m.Find(14), nullptr);
  for (std::uint64_t k : {0ull, 30ull, 46ull, 15ull}) {
    ASSERT_NE(m.Find(k), nullptr) << "lost key " << k << " after shift";
    EXPECT_EQ(*m.Find(k), static_cast<int>(k));
  }

  EXPECT_TRUE(m.Erase(30));
  EXPECT_TRUE(m.Erase(46));
  for (std::uint64_t k : {0ull, 15ull}) {
    ASSERT_NE(m.Find(k), nullptr);
    EXPECT_EQ(*m.Find(k), static_cast<int>(k));
  }
}

TEST(FlatMapTest, ChurnMatchesReferenceMap) {
  // The DRC workload in miniature: sustained insert/erase churn at steady
  // state, checked move-for-move against std::unordered_map. Narrow key
  // space forces collisions, clusters, and wraparound shifts.
  FlatMap<std::uint64_t, int> m;
  std::unordered_map<std::uint64_t, int> ref;
  Rng rng(0x5eed);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.Below(512);
    switch (rng.Below(3)) {
      case 0: {
        const int val = static_cast<int>(rng.Below(1 << 20));
        m[key] = val;
        ref[key] = val;
        break;
      }
      case 1: {
        EXPECT_EQ(m.Erase(key), ref.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        int* found = m.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.Size(), ref.size()) << "step " << step;
  }
  // Final contents must agree exactly.
  std::size_t visited = 0;
  m.ForEach([&](std::uint64_t k, int v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "phantom key " << k;
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMapTest, FileHandleKeys) {
  // Handles that share an inode number on different filesystems, and
  // neighbouring inode numbers, are distinct keys.
  FlatMap<nfs3::Fh, int, nfs3::FhHash> m;
  for (std::uint64_t fsid = 1; fsid <= 3; ++fsid) {
    for (std::uint64_t ino = 1; ino <= 100; ++ino) {
      m[nfs3::Fh{fsid, ino}] = static_cast<int>(fsid * 1000 + ino);
    }
  }
  EXPECT_EQ(m.Size(), 300u);
  EXPECT_EQ(m.Find(nfs3::Fh{4, 1}), nullptr);
  EXPECT_EQ(m.Find(nfs3::Fh{1, 101}), nullptr);
  ASSERT_NE(m.Find(nfs3::Fh{2, 7}), nullptr);
  EXPECT_EQ(*m.Find(nfs3::Fh{2, 7}), 2007);
  EXPECT_TRUE(m.Erase(nfs3::Fh{2, 7}));
  EXPECT_EQ(m.Find(nfs3::Fh{2, 7}), nullptr);
  ASSERT_NE(m.Find(nfs3::Fh{1, 7}), nullptr);
  EXPECT_EQ(*m.Find(nfs3::Fh{3, 7}), 3007);

  // SortedKeys orders by (fsid, ino), whatever the slot order.
  const std::vector<nfs3::Fh> keys = m.SortedKeys();
  ASSERT_EQ(keys.size(), 299u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), (nfs3::Fh{1, 1}));
  EXPECT_EQ(keys.back(), (nfs3::Fh{3, 100}));
}

// Three home slots for every key: the whole table is a few long clusters,
// so nearly every erase lands inside one and shifts its tail back.
struct CollidingFhHash {
  std::uint64_t operator()(const nfs3::Fh& fh) const { return fh.ino % 3; }
};

TEST(FlatMapTest, CollidingHashKeepsEveryKeyFindableAcrossErases) {
  FlatMap<nfs3::Fh, std::uint64_t, CollidingFhHash> m;
  std::map<nfs3::Fh, std::uint64_t> ref;
  Rng rng(0xc011);
  for (int step = 0; step < 6000; ++step) {
    const nfs3::Fh key{1 + rng.Below(2), 1 + rng.Below(48)};
    if (rng.Below(5) < 3) {
      m[key] = static_cast<std::uint64_t>(step);
      ref[key] = static_cast<std::uint64_t>(step);
    } else {
      ASSERT_EQ(m.Erase(key), ref.erase(key) > 0) << "step " << step;
      // After an erase inside a cluster, every survivor is still reachable.
      for (const auto& [k, v] : ref) {
        const std::uint64_t* found = m.Find(k);
        ASSERT_NE(found, nullptr)
            << "step " << step << ": lost " << k.fsid << ":" << k.ino;
        ASSERT_EQ(*found, v);
      }
    }
    ASSERT_EQ(m.Size(), ref.size()) << "step " << step;
  }
  std::vector<nfs3::Fh> want;
  for (const auto& [k, v] : ref) want.push_back(k);
  EXPECT_EQ(m.SortedKeys(), want);
}

// ---------------------------------------------------------------------------
// Buf
// ---------------------------------------------------------------------------

TEST(BufTest, CopiesAndSlicesShareTheBacking) {
  const Buf block = Buf::Copy(Bytes{1, 2, 3, 4, 5});
  EXPECT_TRUE(block.unique());
  const Buf copy = block;
  const Buf slice = block.Slice(1, 3);
  EXPECT_EQ(copy.data(), block.data());
  EXPECT_EQ(slice.data(), block.data() + 1);
  EXPECT_EQ(slice, (Bytes{2, 3, 4}));
  EXPECT_FALSE(block.unique());
}

TEST(BufTest, ASharedBlockIsCopiedOnWrite) {
  const Buf original = Buf::Copy(Bytes{1, 2, 3, 4});
  Buf writer = original;
  writer.Write(1, Bytes{9});
  EXPECT_EQ(original, (Bytes{1, 2, 3, 4}));  // the other holder sees no change
  EXPECT_EQ(writer, (Bytes{1, 9, 3, 4}));
  EXPECT_NE(writer.data(), original.data());
  EXPECT_TRUE(writer.unique());
  EXPECT_TRUE(original.unique());
}

TEST(BufTest, ASolelyHeldBlockIsWrittenInPlace) {
  Buf block = Buf::Copy(Bytes{1, 2, 3, 4});
  const std::uint8_t* bytes = block.data();
  block.Write(2, Bytes{7, 8});
  EXPECT_EQ(block.data(), bytes);
  EXPECT_EQ(block, (Bytes{1, 2, 7, 8}));
}

TEST(BufTest, WritePastTheEndGrowsWithZeros) {
  Buf block;
  block.Write(3, Bytes{5});
  EXPECT_EQ(block, (Bytes{0, 0, 0, 5}));
  block.Write(6, Bytes{6});
  EXPECT_EQ(block, (Bytes{0, 0, 0, 5, 0, 0, 6}));
}

TEST(BufTest, AppendsMoveTheBytesALogarithmicNumberOfTimes) {
  Buf file;
  const std::uint8_t* bytes = nullptr;
  int moves = 0;
  for (int i = 0; i < 4096; ++i) {
    file.Write(file.size(), Bytes{static_cast<std::uint8_t>(i)});
    if (file.data() != bytes) ++moves;
    bytes = file.data();
  }
  ASSERT_EQ(file.size(), 4096u);
  EXPECT_EQ(file[4095], 0xff);
  EXPECT_LE(moves, 13);  // into 1, 2, 4, ..., 4096 bytes
}

TEST(BufTest, ACoveringWriteSharesItsSource) {
  Buf block = Buf::Copy(Bytes{1, 2});
  const Buf src = Buf::Copy(Bytes{3, 4, 5});
  block.WriteShared(0, src);
  EXPECT_EQ(block.data(), src.data());
  block.WriteShared(1, src.Slice(0, 1));  // partial: copied on write
  EXPECT_EQ(block, (Bytes{3, 3, 5}));
  EXPECT_EQ(src, (Bytes{3, 4, 5}));
}

TEST(BufTest, ABackingWhoseCountReachesZeroReturnsToTheArena) {
  Buf message = Buf::Copy(Bytes(100, 1));
  const std::uint8_t* bytes = message.data();
  Buf payload = message.Slice(10, 20);
  const std::size_t pooled = detail::PooledBackings();
  message = Buf();
  EXPECT_EQ(detail::PooledBackings(), pooled);  // the slice still holds it
  payload = Buf();
  EXPECT_EQ(detail::PooledBackings(), pooled + 1);
  // The next buffer of that size reuses it instead of allocating.
  const Buf next = Buf::Copy(Bytes(100, 2));
  EXPECT_EQ(next.data(), bytes);
  EXPECT_EQ(detail::PooledBackings(), pooled);
}

}  // namespace
}  // namespace gvfs
