#include "common/buf.h"

#include <algorithm>
#include <bit>
#include <new>
#include <vector>

namespace gvfs {
namespace detail {
namespace {

constexpr std::size_t kMaxPooled = 256;
constexpr std::size_t kMinCapacity = 256;

/// Released backings, most recent last. Never freed: the pool must outlive
/// every static holder of a Buf, and a reachable pool is no leak to
/// LeakSanitizer.
std::vector<BufBacking*>& Pool() {
  static auto* pool = new std::vector<BufBacking*>();
  return *pool;
}

BufBacking* NewBacking(std::size_t capacity) {
  void* p = ::operator new(sizeof(BufBacking) + capacity);
  return ::new (p) BufBacking{1, static_cast<std::uint32_t>(capacity)};
}

}  // namespace

BufBacking* AcquireBacking(std::size_t n, bool exact) {
  std::vector<BufBacking*>& pool = Pool();
  if (!pool.empty()) {
    BufBacking* top = pool.back();
    if (top->capacity >= n && (!exact || top->capacity - n <= n / 32)) {
      pool.pop_back();
      top->refs = 1;
      return top;
    }
    if (!exact) {
      // Too small for this message: replace it with a larger one, so the
      // pooled backings grow to the sizes the messages in flight need.
      pool.pop_back();
      ::operator delete(top);
    }
  }
  return NewBacking(exact ? n : std::bit_ceil(std::max(n, kMinCapacity)));
}

void ReleaseBacking(BufBacking* backing) {
  std::vector<BufBacking*>& pool = Pool();
  if (pool.size() >= kMaxPooled) {
    ::operator delete(backing);
    return;
  }
  pool.push_back(backing);
}

std::size_t PooledBackings() { return Pool().size(); }

}  // namespace detail

Buf::Buf(const Bytes& bytes) : Buf(Copy(bytes)) {}

void Buf::Write(std::size_t at, ByteView src) {
  if (src.empty() && at <= len_) return;  // changes no byte
  const std::size_t end = std::max<std::size_t>(len_, at + src.size());
  if (unique() && off_ + end <= b_->capacity) {
    std::uint8_t* base = b_->bytes() + off_;
    if (at > len_) std::memset(base + len_, 0, at - len_);
    if (!src.empty()) std::memmove(base + at, src.data(), src.size());
    len_ = static_cast<std::uint32_t>(end);
    return;
  }
  // Copy on write: only the old bytes the write leaves standing move.
  const std::size_t room = len_ != 0 && end > len_ ? std::bit_ceil(end) : end;
  detail::BufBacking* copy = detail::AcquireBacking(room, /*exact=*/true);
  std::uint8_t* p = copy->bytes();
  const std::size_t head = std::min<std::size_t>(len_, at);
  if (head != 0) std::memcpy(p, data(), head);
  if (at > len_) std::memset(p + len_, 0, at - len_);
  if (!src.empty()) std::memcpy(p + at, src.data(), src.size());
  const std::size_t tail = at + src.size();
  if (tail < len_) std::memcpy(p + tail, data() + tail, len_ - tail);
  *this = Buf(copy, end);
}

}  // namespace gvfs
