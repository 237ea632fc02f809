// The kernel client's bounded per-handle tables: the attribute cache and the
// name (dnlc) cache. Both are hash tables (one probe per lookup) that, once
// full, evict their lowest key first, as the sorted trees they replaced did:
// which entry goes decides later hits, so it decides simulated results.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "common/name_list.h"
#include "common/types.h"
#include "nfs3/proto.h"

namespace gvfs::kclient {

/// The sorted handles of a bounded table, kept only from the moment the
/// table first fills: a hash table cannot name its lowest key, but a cache
/// that never fills (thousands of small mounts) should not pay for an index.
class EvictionOrder {
 public:
  bool Active() const { return active_; }
  /// Starts tracking; `keys` is everything the table holds now, sorted.
  void Start(std::vector<nfs3::Fh> keys) {
    sorted_ = std::move(keys);
    active_ = true;
  }
  void Add(const nfs3::Fh& fh);
  void Remove(const nfs3::Fh& fh);
  const nfs3::Fh& Lowest() const { return sorted_.front(); }
  /// Stops tracking and releases the index.
  void Reset() {
    sorted_ = {};
    active_ = false;
  }

 private:
  std::vector<nfs3::Fh> sorted_;  // ascending, unique
  bool active_ = false;
};

struct AttrEntry {
  nfs3::Fattr attr;
  SimTime fetched_at = 0;
};

/// Attributes by handle, at most `capacity` entries.
class AttrCache {
 public:
  explicit AttrCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t Size() const { return map_.Size(); }
  AttrEntry* Find(const nfs3::Fh& fh) { return map_.Find(fh); }
  const AttrEntry* Find(const nfs3::Fh& fh) const { return map_.Find(fh); }
  /// The entry for `fh`, inserted if absent. Inserting into a full cache
  /// first evicts the lowest handle. The reference follows FlatMap's rule.
  AttrEntry& Store(const nfs3::Fh& fh);
  void Erase(const nfs3::Fh& fh);
  void Clear();

 private:
  FlatMap<nfs3::Fh, AttrEntry, nfs3::FhHash> map_;
  EvictionOrder order_;
  std::size_t capacity_;
};

struct DnlcEntry {
  nfs3::Fh child;
  SimTime dir_mtime_seen = 0;
};

/// Names by (directory, name), at most `capacity` names over all
/// directories, grouped per directory so that one probe finds a
/// directory's names and a directory-wide refresh walks only them.
class NameCache {
 public:
  explicit NameCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t Size() const { return size_; }
  const DnlcEntry* Find(const nfs3::Fh& dir, std::string_view name) const;
  /// Stores (dir, name). When the cache already holds `capacity` names, the
  /// lowest (dir, name) is evicted first, even if it is the one stored.
  void Store(const nfs3::Fh& dir, std::string_view name, const DnlcEntry& entry);
  void Erase(const nfs3::Fh& dir, std::string_view name);
  /// Records that every name under `dir` was validated against `dir_mtime`
  /// (the client's own mutation of the directory).
  void RefreshDir(const nfs3::Fh& dir, SimTime dir_mtime);
  void Clear();

 private:
  void EvictLowest();

  FlatMap<nfs3::Fh, NameList<DnlcEntry>, nfs3::FhHash> dirs_;  // none empty
  EvictionOrder order_;  // of dirs_
  std::size_t size_ = 0;  // names over all directories
  std::size_t capacity_;
};

}  // namespace gvfs::kclient
