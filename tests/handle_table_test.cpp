// Differential test for the hashed per-handle tables: the kernel client's
// attribute and name caches (kclient/caches.h) and the proxy disk cache
// (gvfs/disk_cache.h) are driven in lockstep with std::map references that
// keep the rules of the sorted trees they replaced, over seeded schedules.
// Lookups, eviction victims, directory-wide refreshes and the dirty-file
// enumeration order must agree at every step.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gvfs/disk_cache.h"
#include "kclient/caches.h"

namespace gvfs {
namespace {

using nfs3::Fh;
using NameKey = std::pair<Fh, std::string>;

/// The kernel client's bound for both caches.
constexpr std::size_t kCapacity = 512;

std::string Describe(const Fh& fh) {
  return std::to_string(fh.fsid) + ":" + std::to_string(fh.ino);
}

/// Handles over two filesystems, so order is decided by both fields.
Fh PickHandle(Rng& rng, std::uint64_t inodes) {
  return Fh{1 + rng.Below(2), 1 + rng.Below(inodes)};
}

/// Names whose byte order differs from their numeric order.
std::string PickName(Rng& rng, std::uint64_t names) {
  return "n" + std::to_string(rng.Below(names));
}

// ---------------------------------------------------------------------------
// References: the trees, with the eviction rule they had
// ---------------------------------------------------------------------------

struct RefAttrCache {
  std::map<Fh, kclient::AttrEntry> map;

  /// Stores `fh`; returns the handle evicted to make room, if any.
  std::optional<Fh> Store(const Fh& fh, SimTime fetched_at) {
    std::optional<Fh> victim;
    if (map.size() >= kCapacity && map.find(fh) == map.end()) {
      victim = map.begin()->first;
      map.erase(map.begin());
    }
    map[fh].fetched_at = fetched_at;
    return victim;
  }
};

struct RefNameCache {
  std::map<NameKey, kclient::DnlcEntry> map;

  std::optional<NameKey> Store(const Fh& dir, const std::string& name,
                               const kclient::DnlcEntry& entry) {
    std::optional<NameKey> victim;
    if (map.size() >= kCapacity) {
      victim = map.begin()->first;
      map.erase(map.begin());
    }
    map[{dir, name}] = entry;
    return victim;
  }

  bool HasDir(const Fh& dir) const {
    auto it = map.lower_bound({dir, ""});
    return it != map.end() && it->first.first == dir;
  }

  void RefreshDir(const Fh& dir, SimTime mtime) {
    for (auto it = map.lower_bound({dir, ""}); it != map.end() && it->first.first == dir;
         ++it) {
      it->second.dir_mtime_seen = mtime;
    }
  }
};

/// The disk cache's attribute validity, name and block tables, as trees.
struct RefDiskCache {
  std::map<Fh, std::pair<bool, SimTime>> attrs;  // (valid, mtime)
  std::map<NameKey, std::pair<Fh, SimTime>> lookups;  // (child, dir mtime)
  std::map<Fh, std::map<std::uint64_t, bool>> files;  // index -> dirty

  bool HasLookupEntries(const Fh& dir) const {
    auto it = lookups.lower_bound({dir, ""});
    return it != lookups.end() && it->first.first == dir;
  }
  std::vector<Fh> FilesWithDirtyData() const {
    std::vector<Fh> out;
    for (const auto& [fh, blocks] : files) {
      for (const auto& [index, dirty] : blocks) {
        if (dirty) {
          out.push_back(fh);
          break;
        }
      }
    }
    return out;
  }
};

struct Tally {
  std::uint64_t attr_evictions = 0;
  std::uint64_t index_starts = 0;  // a cache filled for the first time
  std::uint64_t name_evictions = 0;
  std::uint64_t dir_emptied = 0;  // an eviction took a directory's last name
  std::uint64_t refreshed_names = 0;
  std::uint64_t dirty_lists = 0;  // enumerations with two or more files
};

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

bool RunAttrSchedule(std::uint64_t seed, Tally& tally) {
  Rng rng(seed);
  const std::string where = "attr seed " + std::to_string(seed);
  // From well below to well above the capacity in handles.
  const std::uint64_t inodes = 160 + rng.Below(560);
  kclient::AttrCache cache(kCapacity);
  RefAttrCache ref;
  bool was_full = false;

  auto same_contents = [&](int step) {
    if (cache.Size() != ref.map.size()) {
      ADD_FAILURE() << where << " step " << step << ": size " << cache.Size()
                    << ", reference " << ref.map.size();
      return false;
    }
    for (const auto& [fh, entry] : ref.map) {
      const kclient::AttrEntry* got = cache.Find(fh);
      if (got == nullptr || got->fetched_at != entry.fetched_at) {
        ADD_FAILURE() << where << " step " << step << ": " << Describe(fh)
                      << " lost or stale";
        return false;
      }
    }
    return true;
  };

  for (int step = 1; step <= 1200; ++step) {
    const Fh fh = PickHandle(rng, inodes);
    const std::uint64_t op = rng.Below(100);
    if (op < 85) {
      const std::optional<Fh> victim = ref.Store(fh, step);
      cache.Store(fh).fetched_at = step;
      if (victim.has_value()) {
        ++tally.attr_evictions;
        if (!was_full) ++tally.index_starts;
        was_full = true;
        if (cache.Find(*victim) != nullptr) {
          ADD_FAILURE() << where << " step " << step << ": evicted a handle other than "
                        << Describe(*victim);
          return false;
        }
      }
      if (cache.Size() != ref.map.size()) {
        ADD_FAILURE() << where << " step " << step << ": size " << cache.Size()
                      << " after storing " << Describe(fh) << ", reference "
                      << ref.map.size();
        return false;
      }
    } else if (op < 94) {
      const kclient::AttrEntry* got = cache.Find(fh);
      auto want = ref.map.find(fh);
      const bool same = want == ref.map.end()
                            ? got == nullptr
                            : got != nullptr && got->fetched_at == want->second.fetched_at;
      if (!same) {
        ADD_FAILURE() << where << " step " << step << ": Find(" << Describe(fh) << ") differs";
        return false;
      }
    } else if (op < 99 || rng.Below(8) != 0) {
      cache.Erase(fh);
      ref.map.erase(fh);
    } else {
      cache.Clear();  // DropCaches: the eviction index starts over
      ref.map.clear();
      was_full = false;
    }
    if (step % 100 == 0 && !same_contents(step)) return false;
  }
  return same_contents(-1);
}

bool RunNameSchedule(std::uint64_t seed, Tally& tally) {
  Rng rng(seed ^ 0x6e616d65);
  const std::string where = "dnlc seed " + std::to_string(seed);
  const std::uint64_t dirs = 1 + rng.Below(48);
  const std::uint64_t names = 8 + rng.Below(120);
  kclient::NameCache cache(kCapacity);
  RefNameCache ref;

  auto same_entry = [&](const NameKey& key, int step) {
    const kclient::DnlcEntry* got = cache.Find(key.first, key.second);
    auto want = ref.map.find(key);
    const bool same = want == ref.map.end()
                          ? got == nullptr
                          : got != nullptr && got->child == want->second.child &&
                                got->dir_mtime_seen == want->second.dir_mtime_seen;
    if (!same) {
      ADD_FAILURE() << where << " step " << step << ": (" << Describe(key.first) << ", "
                    << key.second << ") differs";
    }
    return same;
  };
  auto same_contents = [&](int step) {
    if (cache.Size() != ref.map.size()) {
      ADD_FAILURE() << where << " step " << step << ": size " << cache.Size()
                    << ", reference " << ref.map.size();
      return false;
    }
    for (const auto& [key, entry] : ref.map) {
      if (!same_entry(key, step)) return false;
    }
    return true;
  };

  for (int step = 1; step <= 1200; ++step) {
    const Fh dir = PickHandle(rng, dirs);
    const std::string name = PickName(rng, names);
    const std::uint64_t op = rng.Below(100);
    if (op < 65) {
      const kclient::DnlcEntry entry{Fh{1, 1000 + static_cast<std::uint64_t>(step)},
                                     static_cast<SimTime>(rng.Below(4))};
      const std::optional<NameKey> victim = ref.Store(dir, name, entry);
      cache.Store(dir, name, entry);
      if (victim.has_value()) {
        ++tally.name_evictions;
        if (!ref.HasDir(victim->first)) ++tally.dir_emptied;
        if (*victim != NameKey{dir, name} && !same_entry(*victim, step)) return false;
      }
      if (!same_entry({dir, name}, step)) return false;
      if (cache.Size() != ref.map.size()) {
        ADD_FAILURE() << where << " step " << step << ": size " << cache.Size()
                      << ", reference " << ref.map.size();
        return false;
      }
    } else if (op < 80) {
      if (!same_entry({dir, name}, step)) return false;
    } else if (op < 90) {
      const SimTime mtime = 100 + step;
      cache.RefreshDir(dir, mtime);
      ref.RefreshDir(dir, mtime);
      for (auto it = ref.map.lower_bound({dir, ""});
           it != ref.map.end() && it->first.first == dir; ++it) {
        ++tally.refreshed_names;
        if (!same_entry(it->first, step)) return false;
      }
    } else if (op < 99 || rng.Below(8) != 0) {
      cache.Erase(dir, name);
      ref.map.erase({dir, name});
    } else {
      cache.Clear();
      ref.map.clear();
    }
    if (step % 100 == 0 && !same_contents(step)) return false;
  }
  return same_contents(-1);
}

bool RunDiskSchedule(std::uint64_t seed, Tally& tally) {
  Rng rng(seed ^ 0x6469736b);
  const std::string where = "disk seed " + std::to_string(seed);
  const std::uint64_t handles = 4 + rng.Below(60);
  const std::uint64_t names = 4 + rng.Below(28);
  proxy::DiskCache cache;
  RefDiskCache ref;
  std::vector<Fh> seen;  // every handle the schedule touched

  auto attr_of = [](SimTime mtime) {
    nfs3::Fattr attr;
    attr.mtime = mtime;
    return attr;
  };
  auto same_state = [&](int step) {
    const std::vector<Fh> got = cache.FilesWithDirtyData();
    const std::vector<Fh> want = ref.FilesWithDirtyData();
    if (got != want) {
      ADD_FAILURE() << where << " step " << step << ": FilesWithDirtyData lists "
                    << got.size() << " files in another order or set than the "
                    << want.size() << " of the reference";
      return false;
    }
    if (want.size() >= 2) ++tally.dirty_lists;
    std::size_t dirty = 0;
    for (const auto& [fh, blocks] : ref.files) {
      for (const auto& [index, is_dirty] : blocks) dirty += is_dirty ? 1 : 0;
    }
    if (cache.TotalDirtyBlocks() != dirty || cache.AttrCount() != ref.attrs.size()) {
      ADD_FAILURE() << where << " step " << step << ": dirty or attribute counts differ";
      return false;
    }
    for (const Fh& fh : seen) {
      if (cache.HasLookupEntries(fh) != ref.HasLookupEntries(fh)) {
        ADD_FAILURE() << where << " step " << step << ": HasLookupEntries("
                      << Describe(fh) << ") differs";
        return false;
      }
      auto attr = ref.attrs.find(fh);
      const bool valid = attr != ref.attrs.end() && attr->second.first;
      if ((cache.ValidAttr(fh) != nullptr) != valid) {
        ADD_FAILURE() << where << " step " << step << ": ValidAttr(" << Describe(fh)
                      << ") differs";
        return false;
      }
    }
    return true;
  };

  for (int step = 1; step <= 300; ++step) {
    const Fh fh = PickHandle(rng, handles);
    seen.push_back(fh);
    const std::string name = PickName(rng, names);
    const std::uint64_t index = rng.Below(6);
    switch (rng.Below(12)) {
      case 0: {
        const SimTime mtime = static_cast<SimTime>(rng.Below(3));
        cache.StoreAttr(fh, attr_of(mtime), step);
        ref.attrs[fh] = {true, mtime};
        break;
      }
      case 1:
        cache.InvalidateAttr(fh);
        if (auto it = ref.attrs.find(fh); it != ref.attrs.end()) it->second.first = false;
        break;
      case 2: {
        const Fh child{1, 5000 + static_cast<std::uint64_t>(step)};
        cache.StoreLookup(fh, name, child);
        auto attr = ref.attrs.find(fh);
        if (attr != ref.attrs.end() && attr->second.first) {
          ref.lookups[{fh, name}] = {child, attr->second.second};
        }
        break;
      }
      case 3: {
        const Fh* got = cache.RecordedLookup(fh, name);
        auto want = ref.lookups.find({fh, name});
        const bool same = want == ref.lookups.end()
                              ? got == nullptr
                              : got != nullptr && *got == want->second.first;
        const Fh* valid = cache.ValidLookup(fh, name);
        auto attr = ref.attrs.find(fh);
        const bool want_valid = want != ref.lookups.end() && attr != ref.attrs.end() &&
                                attr->second.first &&
                                attr->second.second == want->second.second;
        if (!same || (valid != nullptr) != want_valid) {
          ADD_FAILURE() << where << " step " << step << ": lookup of (" << Describe(fh)
                        << ", " << name << ") differs";
          return false;
        }
        break;
      }
      case 4:
        cache.DropLookup(fh, name);
        ref.lookups.erase({fh, name});
        break;
      case 5:
        cache.ClearLookups(fh);
        ref.lookups.erase(ref.lookups.lower_bound({fh, ""}),
                          ref.lookups.lower_bound({Fh{fh.fsid, fh.ino + 1}, ""}));
        break;
      case 6:
      case 7: {
        const bool dirty = rng.Below(2) == 0;
        cache.StoreBlock(fh, index, Buf::Copy(Bytes(8, 1)), dirty);
        ref.files[fh][index] = dirty;
        break;
      }
      case 8: {
        cache.MarkClean(fh, index);
        auto file = ref.files.find(fh);
        if (file != ref.files.end()) {
          auto block = file->second.find(index);
          if (block != file->second.end()) block->second = false;
        }
        break;
      }
      case 9:
        cache.DropFileData(fh);
        ref.files.erase(fh);
        break;
      case 10: {
        cache.DropCleanData(fh);
        auto file = ref.files.find(fh);
        if (file != ref.files.end()) {
          std::erase_if(file->second, [](const auto& b) { return !b.second; });
          if (file->second.empty()) ref.files.erase(file);
        }
        break;
      }
      default:
        if (rng.Below(4) == 0) {
          cache.Crash();
          for (auto& [h, attr] : ref.attrs) attr.first = false;
          ref.lookups.clear();
        } else {
          cache.InvalidateAllAttrs();
          for (auto& [h, attr] : ref.attrs) attr.first = false;
        }
        break;
    }
    if (step % 10 == 0 && !same_state(step)) return false;
  }
  return same_state(-1);
}

TEST(HandleTableDifferential, MatchesOrderedReferenceOnSeededSchedules) {
  constexpr std::uint64_t kSchedules = 2500;
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    if (!RunAttrSchedule(seed, tally)) break;
    if (!RunNameSchedule(seed, tally)) break;
    if (!RunDiskSchedule(seed, tally)) break;
  }
  // The schedules must reach the order-bearing paths, not only lookups.
  EXPECT_GT(tally.attr_evictions, 50'000u);
  EXPECT_GT(tally.index_starts, 500u);
  EXPECT_GT(tally.name_evictions, 50'000u);
  EXPECT_GT(tally.dir_emptied, 1'000u);
  EXPECT_GT(tally.refreshed_names, 100'000u);
  EXPECT_GT(tally.dirty_lists, 10'000u);
}

}  // namespace
}  // namespace gvfs
