// Buf: the one owner of payload bytes.
//
// An immutable, reference-counted byte range: a counted backing plus an
// offset and a length, 16 bytes by value. Copying or slicing a Buf shares the
// backing, and the bytes never change while another holder can see them: a
// write to a shared Buf first moves it to a copy of its own (Write). Encoded
// messages, packets, RPC bodies, decoded payload fields and the blocks of the
// kernel page cache, the proxy disk cache and memfs are all Bufs, so a block
// is copied only where bytes really move: from the application into the page
// cache, and into a message when it is encoded.
//
// Backings come from a process-wide arena and go back to it when their last
// Buf dies, so steady-state messages reuse buffers instead of allocating.
// The simulator runs on one thread: the count is not atomic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/types.h"

namespace gvfs {

namespace detail {

/// A Buf's storage: the count and the capacity, then the bytes, in one
/// allocation.
struct BufBacking {
  std::uint32_t refs;
  std::uint32_t capacity;

  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
};

/// A backing with room for at least `n` bytes, holding one reference. An
/// `exact` backing has little room beyond `n` (a block sliced out of the
/// message pins at most the message); any other one is whatever the arena
/// has on hand, grown if it is too small.
BufBacking* AcquireBacking(std::size_t n, bool exact);

/// Takes a backing whose count reached zero back into the arena.
void ReleaseBacking(BufBacking* backing);

/// Drops one reference to `backing` (null is a no-op).
inline void Unref(BufBacking* backing) {
  if (backing != nullptr && --backing->refs == 0) ReleaseBacking(backing);
}

/// Backings the arena holds for reuse.
std::size_t PooledBackings();

}  // namespace detail

/// NOTE: the constructors are user-declared (a non-aggregate) because Bufs
/// are passed by value into coroutines (DESIGN.md §6, rule 2).
class Buf {
 public:
  Buf() = default;

  /// Copies the vector's bytes. Implicit, so message literals and callers
  /// that start from a vector build Bufs directly.
  Buf(const Bytes& bytes);  // NOLINT(google-explicit-constructor)

  /// Adopts one reference to `backing`; the Buf is its first `len` bytes.
  Buf(detail::BufBacking* backing, std::size_t len)
      : b_(backing), len_(static_cast<std::uint32_t>(len)) {}

  Buf(const Buf& o) noexcept : b_(o.b_), off_(o.off_), len_(o.len_) {
    if (b_ != nullptr) ++b_->refs;
  }
  Buf(Buf&& o) noexcept
      : b_(std::exchange(o.b_, nullptr)),
        off_(std::exchange(o.off_, 0)),
        len_(std::exchange(o.len_, 0)) {}
  Buf& operator=(const Buf& o) noexcept {
    Buf copy(o);
    Swap(copy);
    return *this;
  }
  Buf& operator=(Buf&& o) noexcept {
    Buf moved(std::move(o));
    Swap(moved);
    return *this;
  }
  ~Buf() { detail::Unref(b_); }

  /// A Buf of `n` bytes that `fill(std::uint8_t*)` writes, in an exact
  /// backing.
  template <typename Fill>
  static Buf Build(std::size_t n, Fill fill) {
    if (n == 0) return Buf();
    detail::BufBacking* backing = detail::AcquireBacking(n, /*exact=*/true);
    fill(backing->bytes());
    return Buf(backing, n);
  }

  static Buf Copy(ByteView bytes) {
    return Build(bytes.size(), [&](std::uint8_t* p) {
      std::memcpy(p, bytes.data(), bytes.size());
    });
  }

  const std::uint8_t* data() const {
    return b_ == nullptr ? nullptr : b_->bytes() + off_;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  ByteView view() const { return ByteView(data(), len_); }
  operator ByteView() const { return view(); }  // NOLINT: view adaptor

  /// Shares bytes [offset, offset + len) of this Buf.
  Buf Slice(std::size_t offset, std::size_t len) const {
    Buf out(*this);
    out.off_ += static_cast<std::uint32_t>(offset);
    out.len_ = static_cast<std::uint32_t>(len);
    return out;
  }

  /// Ownership escape hatch: an owned copy, for callers that need a vector.
  Bytes ToBytes() const { return Bytes(begin(), end()); }

  /// True when this Buf is the only holder of its bytes.
  bool unique() const { return b_ != nullptr && b_->refs == 1; }

  /// Writes `src` at `at`, growing the Buf to cover it (a gap reads as
  /// zeros). The bytes change in place only when this Buf is the sole
  /// holder of its backing and the backing has room; otherwise the Buf first
  /// moves to a copy of its own (copy on write), so no other holder ever
  /// sees the write. The copy is exact, except that a write extending a
  /// non-empty Buf rounds it up to a power of two: a run of appends then
  /// moves each byte a bounded number of times, and a 32 KB block filled by
  /// appends still ends exact.
  void Write(std::size_t at, ByteView src);

  /// As Write, but a write that starts the Buf and covers all of it shares
  /// `src` instead of copying it.
  void WriteShared(std::size_t at, const Buf& src) {
    if (at == 0 && src.size() >= len_) {
      *this = src;
    } else {
      Write(at, src);
    }
  }

  friend bool operator==(const Buf& a, const Buf& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }

 private:
  void Swap(Buf& o) noexcept {
    std::swap(b_, o.b_);
    std::swap(off_, o.off_);
    std::swap(len_, o.len_);
  }

  detail::BufBacking* b_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

static_assert(sizeof(Buf) == 16, "a packet carries two Bufs inline");

}  // namespace gvfs
