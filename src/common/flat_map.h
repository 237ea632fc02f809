// FlatMap: open-addressed hash map for the lookups every packet or operation
// makes (pending RPC calls by xid, network links by host pair, DRC entries,
// the per-file-handle caches of kclient, the proxies and memfs).
//
// A lookup is one hash and one or two probes in a contiguous array: no
// pointer chasing, no rebalancing, no per-node allocation. The contract:
//  - Keys. Any copyable key with operator== and a hash functor works:
//    FlatHash for integers, nfs3::FhHash for file handles, a struct's own
//    functor (rpc::RpcNode::DrcKeyHash).
//  - Pointers. A pointer or reference into the table is valid only until
//    the next insert or erase on it. Growth moves every entry, and
//    backward-shift deletion moves the neighbours of the erased one, so this
//    holds even between two calls with no co_await in between: re-find
//    after anything that may have touched the table.
//  - Order. Iteration order depends on insertion history, not on the keys.
//    A site whose order reaches simulator output (a report, a dump, a
//    flush or eviction order) collects the keys and sorts them first. This
//    file is the sanctioned hash table (gvfs-lint's unordered-container
//    rule bans the std ones), keyed by deterministic simulation state only.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace gvfs {

/// Finalizer from splitmix64: mixes all key bits into the table index so
/// sequential ids (xids, host pairs) spread instead of clustering.
constexpr std::uint64_t MixHash64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename K>
struct FlatHash {
  std::uint64_t operator()(K k) const {
    return MixHash64(static_cast<std::uint64_t>(k));
  }
};

/// Open-addressed map with linear probing and backward-shift deletion.
/// K needs copy and ==, Hash maps a key to 64 well-mixed bits; V needs
/// default construction and move assignment.
///
/// Deletion compacts the probe cluster in place instead of leaving a
/// tombstone, so churn-heavy maps (the duplicate-request cache does one
/// insert + one erase per RPC, forever) keep their working-set table size
/// and never rehash at steady state — and every probe chain stays as short
/// as the live load factor allows.
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// Pointer to the mapped value, or nullptr.
  V* Find(const K& key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = Hash{}(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.full) return nullptr;
      if (s.key == key) return &s.value;
      i = (i + 1) & mask_;
    }
  }

  const V* Find(const K& key) const { return const_cast<FlatMap*>(this)->Find(key); }

  /// Inserts a default-constructed value if absent; returns the mapped value.
  V& operator[](const K& key) {
    MaybeGrow();
    std::size_t i = Hash{}(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.full) {
        s.key = key;
        s.value = V{};
        s.full = true;
        ++size_;
        return s.value;
      }
      if (s.key == key) return s.value;
      i = (i + 1) & mask_;
    }
  }

  /// Removes the key if present. Returns true if something was erased.
  bool Erase(const K& key) {
    std::size_t i;
    if (!Locate(key, &i)) return false;
    ShiftErase(i);
    return true;
  }

  /// Removes the key, moving its value into *out first. One probe chain
  /// walk total, where Find-then-Erase would walk it twice.
  bool Extract(const K& key, V* out) {
    std::size_t i;
    if (!Locate(key, &i)) return false;
    *out = std::move(slots_[i].value);
    ShiftErase(i);
    return true;
  }

  void Clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Visits every live entry. Order is hash-table order: do not let it reach
  /// simulator output.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.full) fn(std::as_const(s.key), s.value);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.full) fn(s.key, s.value);
    }
  }

  /// Every key in ascending order: the iteration order for a site whose
  /// order reaches simulator output.
  std::vector<K> SortedKeys() const {
    std::vector<K> keys;
    keys.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.full) keys.push_back(s.key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  // The flag sits between key and value so it fills the key's tail padding
  // when the key is shorter than the value's alignment (a 12-byte DrcKey
  // slot is 40 bytes, not 48; a u32-keyed pointer slot 16, not 24).
  struct Slot {
    K key{};
    bool full = false;
    V value{};
  };

  /// Probe for the key; on hit, stores its slot index. False on miss.
  bool Locate(const K& key, std::size_t* out) {
    if (slots_.empty()) return false;
    std::size_t i = Hash{}(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.full) return false;
      if (s.key == key) {
        *out = i;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Backward-shift deletion: entries in the probe cluster after the hole
  /// are moved back if (and only if) the hole lies on their probe path,
  /// restoring the linear-probing invariant without a tombstone.
  void ShiftErase(std::size_t hole) {
    std::size_t j = hole;
    for (;;) {
      j = (j + 1) & mask_;
      Slot& cand = slots_[j];
      if (!cand.full) break;  // end of cluster: nothing else can move
      const std::size_t home = Hash{}(cand.key) & mask_;
      // cand may fill the hole iff its home position does not lie in the
      // cyclic range (hole, j] — otherwise moving it would break its chain.
      const bool reachable = hole <= j ? (home <= hole || home > j)
                                       : (home <= hole && home > j);
      if (reachable) {
        slots_[hole].key = cand.key;
        slots_[hole].value = std::move(cand.value);
        hole = j;
      }
    }
    Slot& last = slots_[hole];
    last.value = V{};  // release held resources now
    last.full = false;
    --size_;
  }

  void MaybeGrow() {
    // Grow when live entries pass 7/8 occupancy. No tombstones exist, so
    // this is the true load factor and growth happens only when the map
    // genuinely fills.
    if (slots_.empty()) {
      Rehash(16);
    } else if ((size_ + 1) * 8 > slots_.size() * 7) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_cap);  // not assign(): Slot must stay move-only-friendly
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (!s.full) continue;
      std::size_t i = Hash{}(s.key) & mask_;
      while (slots_[i].full) i = (i + 1) & mask_;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      slots_[i].full = true;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // live entries
};

}  // namespace gvfs
