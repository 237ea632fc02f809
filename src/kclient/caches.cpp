#include "kclient/caches.h"

#include <algorithm>

namespace gvfs::kclient {

using nfs3::Fh;

void EvictionOrder::Add(const Fh& fh) {
  if (!active_) return;
  sorted_.insert(std::lower_bound(sorted_.begin(), sorted_.end(), fh), fh);
}

void EvictionOrder::Remove(const Fh& fh) {
  if (!active_) return;
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), fh);
  if (it != sorted_.end() && *it == fh) sorted_.erase(it);
}

// ---------------------------------------------------------------------------
// AttrCache
// ---------------------------------------------------------------------------

AttrEntry& AttrCache::Store(const Fh& fh) {
  if (AttrEntry* entry = map_.Find(fh)) return *entry;
  if (map_.Size() >= capacity_) {
    if (!order_.Active()) order_.Start(map_.SortedKeys());
    const Fh victim = order_.Lowest();
    order_.Remove(victim);
    map_.Erase(victim);
  }
  order_.Add(fh);
  return map_[fh];
}

void AttrCache::Erase(const Fh& fh) {
  if (map_.Erase(fh)) order_.Remove(fh);
}

void AttrCache::Clear() {
  map_.Clear();
  order_.Reset();
}

// ---------------------------------------------------------------------------
// NameCache
// ---------------------------------------------------------------------------

const DnlcEntry* NameCache::Find(const Fh& dir, std::string_view name) const {
  const NameList<DnlcEntry>* names = dirs_.Find(dir);
  return names == nullptr ? nullptr : names->Find(name);
}

void NameCache::Store(const Fh& dir, std::string_view name, const DnlcEntry& entry) {
  if (size_ >= capacity_) EvictLowest();
  const std::size_t dirs_before = dirs_.Size();
  NameList<DnlcEntry>& names = dirs_[dir];
  if (dirs_.Size() != dirs_before) order_.Add(dir);
  if (names.Put(name, entry)) ++size_;
}

void NameCache::Erase(const Fh& dir, std::string_view name) {
  NameList<DnlcEntry>* names = dirs_.Find(dir);
  if (names == nullptr || !names->Erase(name)) return;
  --size_;
  if (names->Empty()) {
    dirs_.Erase(dir);
    order_.Remove(dir);
  }
}

void NameCache::RefreshDir(const Fh& dir, SimTime dir_mtime) {
  NameList<DnlcEntry>* names = dirs_.Find(dir);
  if (names == nullptr) return;
  names->ForEach([&](const std::string&, DnlcEntry& entry) {
    entry.dir_mtime_seen = dir_mtime;
  });
}

void NameCache::Clear() {
  dirs_.Clear();
  order_.Reset();
  size_ = 0;
}

void NameCache::EvictLowest() {
  if (!order_.Active()) order_.Start(dirs_.SortedKeys());
  const Fh dir = order_.Lowest();
  NameList<DnlcEntry>& names = *dirs_.Find(dir);
  names.PopFront();
  --size_;
  if (names.Empty()) {
    dirs_.Erase(dir);
    order_.Remove(dir);
  }
}

}  // namespace gvfs::kclient
