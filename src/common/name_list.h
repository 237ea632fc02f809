// NameList: the cached names under one directory, as one sorted vector.
//
// The per-directory name caches (the kernel client's dnlc, the proxy disk
// cache's lookups) keep one of these per directory handle in a FlatMap, so
// a lookup is one hash probe for the directory and a binary search over its
// names, a directory's names are one contiguous range to refresh or drop,
// and the lowest name is the first element.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gvfs {

template <typename V>
class NameList {
 public:
  using Entry = std::pair<std::string, V>;

  bool Empty() const { return entries_.empty(); }
  std::size_t Size() const { return entries_.size(); }

  V* Find(std::string_view name) {
    auto it = LowerBound(name);
    return it != entries_.end() && it->first == name ? &it->second : nullptr;
  }
  const V* Find(std::string_view name) const {
    return const_cast<NameList*>(this)->Find(name);
  }

  /// Inserts or overwrites `name`. Returns true when the name is new.
  bool Put(std::string_view name, V value) {
    auto it = LowerBound(name);
    if (it != entries_.end() && it->first == name) {
      it->second = std::move(value);
      return false;
    }
    entries_.emplace(it, std::string(name), std::move(value));
    return true;
  }

  /// Removes `name` if present. Returns true if something was erased.
  bool Erase(std::string_view name) {
    auto it = LowerBound(name);
    if (it == entries_.end() || it->first != name) return false;
    entries_.erase(it);
    return true;
  }

  /// Removes the lowest name; the list must not be empty.
  void PopFront() { entries_.erase(entries_.begin()); }

  /// Visits every entry in ascending name order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Entry& e : entries_) fn(std::as_const(e.first), e.second);
  }

 private:
  typename std::vector<Entry>::iterator LowerBound(std::string_view name) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry& e, std::string_view n) { return e.first < n; });
  }

  std::vector<Entry> entries_;  // ascending by name, unique
};

}  // namespace gvfs
