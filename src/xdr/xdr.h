// XDR (RFC 4506) subset used by the simulated ONC-RPC/NFS stack.
//
// All RPC argument/result structs serialize through these encoders; the
// resulting byte counts feed the network simulator's bandwidth model, so
// message sizes on the simulated wire match what a real XDR stack would send.
//
// Both halves are built for the per-message hot path:
//   - Encoder writes into a Buf backing from the process-wide arena
//     (common/buf.h) with bulk memcpy instead of per-byte push_back. Take()
//     hands the bytes out as a Buf (the message); when its last holder drops
//     it, the backing goes back to the arena for the next message.
//   - Decoder is zero-copy: GetOpaque/GetFixedOpaque/GetString return views
//     (View / StrView) into the message rather than fresh allocations, and
//     a decoder over a Buf hands a payload field out as a slice of it.
//
// Messages do not call them field by field: each lists its fields once and
// the generic Sizer/Writer/Reader at the bottom of this file run that list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buf.h"
#include "common/expected.h"
#include "common/types.h"

namespace gvfs::xdr {

/// A borrowed window over decoded opaque bytes. Valid only while the decoded
/// message buffer lives; call Copy() to take ownership (Decoder::Share turns
/// it into a Buf).
struct View {
  const std::uint8_t* ptr = nullptr;
  std::size_t len = 0;

  std::size_t size() const { return len; }
  bool empty() const { return len == 0; }
  const std::uint8_t* data() const { return ptr; }
  const std::uint8_t* begin() const { return ptr; }
  const std::uint8_t* end() const { return ptr + len; }
  std::uint8_t operator[](std::size_t i) const { return ptr[i]; }

  ByteView span() const { return ByteView(ptr, len); }
  operator ByteView() const { return span(); }  // NOLINT: view adaptor

  /// Explicit ownership escape hatch: materializes the bytes.
  Bytes Copy() const { return Bytes(ptr, ptr + len); }
};

/// A borrowed window over a decoded string. Copy() materializes it.
struct StrView {
  std::string_view sv;

  std::size_t size() const { return sv.size(); }
  bool empty() const { return sv.empty(); }
  operator std::string_view() const { return sv; }  // NOLINT: view adaptor

  /// Explicit ownership escape hatch: materializes the string.
  std::string Copy() const { return std::string(sv); }
};

inline bool operator==(const StrView& a, std::string_view b) { return a.sv == b; }
inline bool operator==(std::string_view a, const StrView& b) { return a == b.sv; }

/// Appends XDR-encoded primitives to a Buf backing from the arena.
///
/// A write cursor (pos_) tracks the message length inside the backing's
/// capacity, so each Put is a bounds check plus a store; the backing is
/// replaced by one twice as large only when a write runs past its end. An
/// encoder given the message size up front never grows.
class Encoder {
 public:
  Encoder() = default;
  /// Room for an n-byte message up front; `exact` as in
  /// detail::AcquireBacking.
  explicit Encoder(std::size_t n, bool exact = false)
      : b_(detail::AcquireBacking(n, exact)) {}
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;
  ~Encoder() { detail::Unref(b_); }

  void PutU32(std::uint32_t v) {
    std::uint8_t* p = Grow(4);
    const std::uint32_t be = HostToBe32(v);
    std::memcpy(p, &be, 4);
  }

  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }

  void PutU64(std::uint64_t v) {
    std::uint8_t* p = Grow(8);
    const std::uint64_t be = HostToBe64(v);
    std::memcpy(p, &be, 8);
  }

  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }

  void PutBool(bool v) { PutU32(v ? 1 : 0); }

  /// Variable-length opaque: length prefix + data + pad to 4-byte boundary.
  void PutOpaque(const std::uint8_t* data, std::size_t len) {
    PutU32(static_cast<std::uint32_t>(len));
    PutFixedOpaque(data, len);
  }

  void PutOpaque(ByteView data) { PutOpaque(data.data(), data.size()); }

  /// Fixed-length opaque: data + pad, no length prefix.
  void PutFixedOpaque(const std::uint8_t* data, std::size_t len) {
    const std::size_t padded = Padded(len);
    std::uint8_t* p = Grow(padded);
    // An empty vector's data() may be null, and memcpy from null is
    // undefined even for zero bytes.
    if (len != 0) std::memcpy(p, data, len);
    std::memset(p + len, 0, padded - len);
  }

  void PutString(std::string_view s) {
    PutOpaque(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// Opens an n-byte raw write window that the caller must fill completely
  /// (e.g. with StoreBe32/StoreBe64). Fixed-layout writers — RPC headers,
  /// attribute blocks — fuse one capacity check over the whole window where
  /// per-field Puts would each check and bump the cursor. The pointer is
  /// valid until the next mutating call.
  std::uint8_t* Reserve(std::size_t n) { return Grow(n); }

  static void StoreBe32(std::uint8_t* p, std::uint32_t v) {
    const std::uint32_t be = HostToBe32(v);
    std::memcpy(p, &be, 4);
  }

  static void StoreBe64(std::uint8_t* p, std::uint64_t v) {
    const std::uint64_t be = HostToBe64(v);
    std::memcpy(p, &be, 8);
  }

  /// The bytes written so far; valid until the next mutating call.
  ByteView bytes() const { return ByteView(b_ == nullptr ? nullptr : b_->bytes(), pos_); }

  /// Hands the message out (it becomes, e.g., a packet's body); the encoder
  /// starts over empty.
  Buf Take() {
    Buf out(std::exchange(b_, nullptr), pos_);
    pos_ = 0;
    return out;
  }

  std::size_t size() const { return pos_; }

  /// Drops accumulated bytes but keeps the capacity, for encoder reuse.
  void Reset() { pos_ = 0; }

  /// An opaque of `len` bytes takes this many on the wire, padding included.
  static constexpr std::size_t Padded(std::size_t len) { return (len + 3) & ~std::size_t{3}; }

 private:
  static std::uint32_t HostToBe32(std::uint32_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap32(v);
#endif
  }

  static std::uint64_t HostToBe64(std::uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap64(v);
#endif
  }

  std::uint8_t* Grow(std::size_t n) {
    if (b_ == nullptr || pos_ + n > b_->capacity) Regrow(pos_ + n);
    std::uint8_t* p = b_->bytes() + pos_;
    pos_ += n;
    return p;
  }

  /// Moves the message to a backing with room for `need` bytes.
  void Regrow(std::size_t need) {
    if (b_ == nullptr) {  // nothing written yet
      b_ = detail::AcquireBacking(need, /*exact=*/false);
      return;
    }
    detail::BufBacking* grown = detail::AcquireBacking(
        std::max(need, std::size_t{b_->capacity} * 2), /*exact=*/false);
    std::memcpy(grown->bytes(), b_->bytes(), pos_);
    detail::Unref(std::exchange(b_, grown));
  }

  detail::BufBacking* b_ = nullptr;
  std::size_t pos_ = 0;
};

enum class DecodeError { kTruncated, kBadValue };

/// Reads XDR-encoded primitives from a byte buffer. Never reads out of
/// bounds; a short buffer yields DecodeError::kTruncated. Opaque and string
/// reads return views into the buffer: the buffer must outlive them.
class Decoder {
 public:
  /// Payload fields decoded from a Buf are slices of it; from anything
  /// else, copies.
  explicit Decoder(const Buf& buf) : data_(buf.data()), size_(buf.size()), source_(&buf) {}
  explicit Decoder(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  explicit Decoder(ByteView buf) : data_(buf.data()), size_(buf.size()) {}
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  Expected<std::uint32_t, DecodeError> GetU32() {
    if (size_ - pos_ < 4) return Unexpected(DecodeError::kTruncated);
    std::uint32_t be;
    std::memcpy(&be, data_ + pos_, 4);
    pos_ += 4;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap32(be);
#endif
  }

  Expected<std::int32_t, DecodeError> GetI32() {
    auto v = GetU32();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int32_t>(*v);
  }

  Expected<std::uint64_t, DecodeError> GetU64() {
    if (size_ - pos_ < 8) return Unexpected(DecodeError::kTruncated);
    std::uint64_t be;
    std::memcpy(&be, data_ + pos_, 8);
    pos_ += 8;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap64(be);
#endif
  }

  Expected<std::int64_t, DecodeError> GetI64() {
    auto v = GetU64();
    if (!v) return Unexpected(v.error());
    return static_cast<std::int64_t>(*v);
  }

  Expected<bool, DecodeError> GetBool() {
    auto v = GetU32();
    if (!v) return Unexpected(v.error());
    if (*v > 1) return Unexpected(DecodeError::kBadValue);
    return *v == 1;
  }

  Expected<View, DecodeError> GetOpaque() {
    auto len = GetU32();
    if (!len) return Unexpected(len.error());
    return GetFixedOpaque(*len);
  }

  Expected<View, DecodeError> GetFixedOpaque(std::size_t len) {
    const std::size_t padded = (len + 3) & ~std::size_t{3};
    if (size_ - pos_ < padded || padded < len) {
      return Unexpected(DecodeError::kTruncated);
    }
    View out{data_ + pos_, len};
    pos_ += padded;
    return out;
  }

  Expected<StrView, DecodeError> GetString() {
    auto raw = GetOpaque();
    if (!raw) return Unexpected(raw.error());
    return StrView{
        std::string_view(reinterpret_cast<const char*>(raw->ptr), raw->len)};
  }

  /// Raw read window: returns a pointer to the next n bytes and advances, or
  /// nullptr if the buffer is short. The fixed-layout mirror of
  /// Encoder::Reserve — one bounds check covers every field read through
  /// LoadBe32/LoadBe64.
  const std::uint8_t* GetRaw(std::size_t n) {
    if (size_ - pos_ < n) return nullptr;
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  static std::uint32_t LoadBe32(const std::uint8_t* p) {
    std::uint32_t be;
    std::memcpy(&be, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap32(be);
#endif
  }

  static std::uint64_t LoadBe64(const std::uint8_t* p) {
    std::uint64_t be;
    std::memcpy(&be, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return be;
#else
    return __builtin_bswap64(be);
#endif
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// A decoded opaque as a Buf: a slice of the source Buf, or a copy when
  /// the decoder reads plain bytes.
  Buf Share(View v) const {
    if (source_ == nullptr) return Buf::Copy(v);
    return source_->Slice(static_cast<std::size_t>(v.ptr - data_), v.len);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const Buf* source_ = nullptr;
};

// ---------------------------------------------------------------------------
// Field lists
// ---------------------------------------------------------------------------
//
// A message declares its wire layout once, as a static member that names
// its fields in wire order:
//
//   static void Xdr(auto& io, auto& m) {
//     io(m.status, m.attr);
//     if (m.status == Status::kOk) io(m.count, m.eof, m.data);
//   }
//
// Writer runs the list over a const message and Reader over a mutable one,
// so encoding and decoding cannot drift apart (the one-filter-per-type idea
// of Sun's xdr_<type> routines, RFC 4506); Sizer runs it first to measure
// the message. A field encodes by its type:
//   std::uint32_t, std::uint64_t, std::int64_t   unsigned int / hyper
//   bool                                          bool (a value above 1 is kBadValue)
//   enum                                          u32, cast back without validation
//   std::string                                   variable-length opaque, copied out
//   Buf                                           variable-length opaque, a slice of
//                                                 the message when decoded from a Buf
//   std::optional<T>                              presence bool, then T if present
//   std::vector<T>                                u32 count, then each element
//   struct with Encode/Decode and kXdrSize        its own fused fixed layout
//   struct with Xdr                               its field list

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Measures what a Writer writes: the encoded size, and how much of it is
/// payload (Buf fields).
class Sizer {
 public:
  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (Add(fields), ...);
  }

  std::size_t size() const { return size_; }
  std::size_t payload() const { return payload_; }

 private:
  template <typename T>
  void Add(const T& v) {
    if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool> ||
                  std::is_same_v<T, std::uint32_t>) {
      size_ += 4;
    } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                         std::is_same_v<T, std::int64_t>) {
      size_ += 8;
    } else if constexpr (std::is_same_v<T, std::string>) {
      size_ += 4 + Encoder::Padded(v.size());
    } else if constexpr (std::is_same_v<T, Buf>) {
      size_ += 4 + Encoder::Padded(v.size());
      payload_ += v.size();
    } else if constexpr (kIsOptional<T>) {
      size_ += 4;
      if (v) Add(*v);
    } else if constexpr (kIsVector<T>) {
      size_ += 4;
      for (const auto& element : v) Add(element);
    } else if constexpr (requires { T::kXdrSize; }) {
      size_ += T::kXdrSize;
    } else {
      T::Xdr(*this, v);
    }
  }

  std::size_t size_ = 0;
  std::size_t payload_ = 0;
};

/// Encodes fields into an Encoder.
class Writer {
 public:
  explicit Writer(Encoder& enc) : enc_(enc) {}

  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (Put(fields), ...);
  }

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      enc_.PutU32(static_cast<std::uint32_t>(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      enc_.PutBool(v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      enc_.PutU32(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                         std::is_same_v<T, std::int64_t>) {
      enc_.PutU64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      enc_.PutString(v);
    } else if constexpr (std::is_same_v<T, Buf>) {
      enc_.PutOpaque(v);
    } else if constexpr (kIsOptional<T>) {
      enc_.PutBool(v.has_value());
      if (v) Put(*v);
    } else if constexpr (kIsVector<T>) {
      enc_.PutU32(static_cast<std::uint32_t>(v.size()));
      for (const auto& element : v) Put(element);
    } else if constexpr (requires { v.Encode(enc_); }) {
      v.Encode(enc_);
    } else {
      T::Xdr(*this, v);
    }
  }

  Encoder& enc_;
};

/// Decodes fields from a Decoder. The first error sticks: every later field
/// is skipped and keeps its value. Strings are copied out of the buffer; a
/// Buf field shares it when the decoder reads a Buf.
class Reader {
 public:
  explicit Reader(Decoder& dec) : dec_(dec) {}

  template <typename... Fields>
  void operator()(Fields&... fields) {
    (Get(fields), ...);
  }

  bool ok() const { return !error_.has_value(); }
  const std::optional<DecodeError>& error() const { return error_; }

 private:
  template <typename T>
  void Get(T& v) {
    if (error_) return;
    if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint32_t>) {
      Take(dec_.GetU32(), v);
    } else if constexpr (std::is_same_v<T, bool>) {
      Take(dec_.GetBool(), v);
    } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                         std::is_same_v<T, std::int64_t>) {
      Take(dec_.GetU64(), v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      auto s = dec_.GetString();
      if (s) v.assign(s->sv);
      else error_ = s.error();
    } else if constexpr (std::is_same_v<T, Buf>) {
      auto o = dec_.GetOpaque();
      if (o) v = dec_.Share(*o);
      else error_ = o.error();
    } else if constexpr (kIsOptional<T>) {
      bool present = false;
      Get(present);
      if (present) Get(v.emplace());
      else v.reset();
    } else if constexpr (kIsVector<T>) {
      std::uint32_t count = 0;
      Get(count);
      // Every element takes at least 4 bytes, so a count the rest of the
      // buffer cannot hold is a truncation, caught before reserving for it.
      if (count > dec_.remaining() / 4) error_ = DecodeError::kTruncated;
      if (error_) return;
      v.clear();
      v.reserve(count);
      for (std::uint32_t i = 0; i < count && !error_; ++i) Get(v.emplace_back());
    } else if constexpr (requires { T::Decode(dec_); }) {
      Take(T::Decode(dec_), v);
    } else {
      T::Xdr(*this, v);
    }
  }

  template <typename Result, typename T>
  void Take(Result result, T& v) {
    if (result) v = static_cast<T>(*result);
    else error_ = result.error();
  }

  Decoder& dec_;
  std::optional<DecodeError> error_;
};

}  // namespace gvfs::xdr
