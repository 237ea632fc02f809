#include <gtest/gtest.h>

#include "xdr/xdr.h"

namespace gvfs::xdr {
namespace {

TEST(XdrTest, U32RoundTrip) {
  Encoder enc;
  enc.PutU32(0xdeadbeef);
  EXPECT_EQ(enc.size(), 4u);
  Decoder dec(enc.bytes());
  auto v = dec.GetU32();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0xdeadbeefu);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, U32BigEndianWire) {
  Encoder enc;
  enc.PutU32(0x01020304);
  const ByteView b = enc.bytes();
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
}

TEST(XdrTest, I32Negative) {
  Encoder enc;
  enc.PutI32(-12345);
  Decoder dec(enc.bytes());
  auto v = dec.GetI32();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, -12345);
}

TEST(XdrTest, U64RoundTrip) {
  Encoder enc;
  enc.PutU64(0x0123456789abcdefULL);
  EXPECT_EQ(enc.size(), 8u);
  Decoder dec(enc.bytes());
  auto v = dec.GetU64();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0x0123456789abcdefULL);
}

TEST(XdrTest, I64Negative) {
  Encoder enc;
  enc.PutI64(-9'000'000'000LL);
  Decoder dec(enc.bytes());
  auto v = dec.GetI64();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, -9'000'000'000LL);
}

TEST(XdrTest, BoolRoundTrip) {
  Encoder enc;
  enc.PutBool(true);
  enc.PutBool(false);
  Decoder dec(enc.bytes());
  EXPECT_TRUE(*dec.GetBool());
  EXPECT_FALSE(*dec.GetBool());
}

TEST(XdrTest, BoolRejectsOutOfRange) {
  Encoder enc;
  enc.PutU32(2);
  Decoder dec(enc.bytes());
  auto v = dec.GetBool();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error(), DecodeError::kBadValue);
}

TEST(XdrTest, OpaquePadding) {
  Encoder enc;
  Bytes payload = {1, 2, 3, 4, 5};
  enc.PutOpaque(payload);
  // 4 (length) + 5 (data) + 3 (pad) = 12
  EXPECT_EQ(enc.size(), 12u);
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Copy(), payload);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, EmptyOpaque) {
  Encoder enc;
  enc.PutOpaque(Bytes{});
  EXPECT_EQ(enc.size(), 4u);
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

TEST(XdrTest, FixedOpaqueNoLengthPrefix) {
  Encoder enc;
  std::uint8_t data[6] = {9, 8, 7, 6, 5, 4};
  enc.PutFixedOpaque(data, 6);
  EXPECT_EQ(enc.size(), 8u);  // 6 + 2 pad
  Decoder dec(enc.bytes());
  auto v = dec.GetFixedOpaque(6);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 9);
  EXPECT_EQ((*v)[5], 4);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, StringRoundTrip) {
  Encoder enc;
  enc.PutString("hello, xdr");
  Decoder dec(enc.bytes());
  auto v = dec.GetString();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello, xdr");
}

TEST(XdrTest, TruncatedU32) {
  Bytes short_buf = {1, 2, 3};
  Decoder dec(short_buf);
  auto v = dec.GetU32();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error(), DecodeError::kTruncated);
}

TEST(XdrTest, TruncatedOpaqueBody) {
  Encoder enc;
  enc.PutU32(100);  // claims 100 bytes follow; none do
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.error(), DecodeError::kTruncated);
}

TEST(XdrTest, MixedSequenceRoundTrip) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutString("name");
  enc.PutU64(1ULL << 40);
  enc.PutBool(true);
  enc.PutOpaque(Bytes{0xff});

  Decoder dec(enc.bytes());
  EXPECT_EQ(*dec.GetU32(), 7u);
  EXPECT_EQ(*dec.GetString(), "name");
  EXPECT_EQ(*dec.GetU64(), 1ULL << 40);
  EXPECT_TRUE(*dec.GetBool());
  EXPECT_EQ((*dec.GetOpaque())[0], 0xff);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, RemainingCount) {
  Encoder enc;
  enc.PutU32(1);
  enc.PutU32(2);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.remaining(), 8u);
  (void)dec.GetU32();
  EXPECT_EQ(dec.remaining(), 4u);
}

// Property-style sweep: encode/decode random payload sizes, verify padding
// invariants hold for every size.
class XdrOpaqueSweep : public ::testing::TestWithParam<int> {};

TEST_P(XdrOpaqueSweep, SizeAlwaysMultipleOfFour) {
  const int n = GetParam();
  Bytes payload(static_cast<std::size_t>(n), 0xab);
  Encoder enc;
  enc.PutOpaque(payload);
  EXPECT_EQ(enc.size() % 4, 0u);
  Decoder dec(enc.bytes());
  auto v = dec.GetOpaque();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Copy(), payload);
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(AllResidues, XdrOpaqueSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 31, 32, 33, 1024,
                                           4095, 4096, 4097));

// --- Truncation property sweep -------------------------------------------
// Every getter, offered every strictly-short prefix of a valid encoding,
// must report kTruncated (GetRaw: nullptr) and never read past the buffer
// (the sanitizer job enforces the second half). At the exact length each
// must succeed with the original value.

TEST(XdrTruncationSweep, EveryGetterEveryShortPrefix) {
  Encoder enc;
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutBool(true);
  Bytes payload = {1, 2, 3, 4, 5};
  enc.PutOpaque(payload);
  enc.PutString("hello");
  const ByteView wire = enc.bytes();

  for (std::size_t len = 0; len < wire.size(); ++len) {
    Decoder dec(wire.data(), len);
    bool truncated = false;
    auto u32 = dec.GetU32();
    if (!u32.has_value()) {
      EXPECT_EQ(u32.error(), DecodeError::kTruncated);
      truncated = true;
    }
    if (!truncated) {
      auto u64 = dec.GetU64();
      if (!u64.has_value()) {
        EXPECT_EQ(u64.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    if (!truncated) {
      auto b = dec.GetBool();
      if (!b.has_value()) {
        EXPECT_EQ(b.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    if (!truncated) {
      auto op = dec.GetOpaque();
      if (!op.has_value()) {
        EXPECT_EQ(op.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    if (!truncated) {
      auto s = dec.GetString();
      if (!s.has_value()) {
        EXPECT_EQ(s.error(), DecodeError::kTruncated);
        truncated = true;
      }
    }
    // A strict prefix can never decode the full sequence.
    EXPECT_TRUE(truncated) << "prefix of " << len << " bytes decoded fully";
  }

  // The untruncated wire decodes to exactly what went in.
  Decoder dec(wire);
  EXPECT_EQ(dec.GetU32().value_or(0), 0xdeadbeefu);
  EXPECT_EQ(dec.GetU64().value_or(0), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.GetBool().value_or(false), true);
  auto op = dec.GetOpaque();
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->Copy(), payload);
  auto s = dec.GetString();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->Copy(), "hello");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTruncationSweep, GetFixedOpaqueShortBuffer) {
  Bytes wire = {1, 2, 3, 4, 5, 6, 7};  // not a multiple of 4: 8 needed
  for (std::size_t want : {8u, 12u, 100u}) {
    Decoder dec(wire);
    auto v = dec.GetFixedOpaque(want);
    ASSERT_FALSE(v.has_value()) << want;
    EXPECT_EQ(v.error(), DecodeError::kTruncated);
  }
}

TEST(XdrTruncationSweep, GetRawShortBuffer) {
  Bytes wire = {1, 2, 3, 4};
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    Decoder dec(wire.data(), len);
    const std::uint8_t* p = dec.GetRaw(len + 1);  // one past what's there
    EXPECT_EQ(p, nullptr);
    EXPECT_EQ(dec.pos(), 0u) << "failed GetRaw must not consume";
    if (len > 0) {
      EXPECT_NE(dec.GetRaw(len), nullptr);  // exact fit succeeds
      EXPECT_TRUE(dec.AtEnd());
    }
  }
}

// --- Fixed-layout window round trips --------------------------------------
// Reserve/StoreBe must be byte-identical to the per-field Put path, and
// GetRaw/LoadBe must read back what Put wrote: the fused header writers in
// rpc.cpp and proto.cpp rely on the two paths being interchangeable on the
// wire.

TEST(XdrFixedWindow, ReserveStoreMatchesPut) {
  Encoder put;
  put.PutU32(0x01020304);
  put.PutU64(0x1122334455667788ULL);
  put.PutU32(7);

  Encoder fused;
  std::uint8_t* w = fused.Reserve(16);
  Encoder::StoreBe32(w, 0x01020304);
  Encoder::StoreBe64(w + 4, 0x1122334455667788ULL);
  Encoder::StoreBe32(w + 12, 7);

  EXPECT_EQ(put.Take(), fused.Take());
}

TEST(XdrFixedWindow, LoadBeMatchesGet) {
  Encoder enc;
  enc.PutU32(0xcafef00d);
  enc.PutU64(0x8000000000000001ULL);
  Decoder dec(enc.bytes());
  const std::uint8_t* r = dec.GetRaw(12);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(Decoder::LoadBe32(r), 0xcafef00du);
  EXPECT_EQ(Decoder::LoadBe64(r + 4), 0x8000000000000001ULL);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrFixedWindow, ReserveInterleavesWithPuts) {
  Encoder enc;
  enc.PutU32(1);
  std::uint8_t* w = enc.Reserve(8);
  Encoder::StoreBe64(w, 2);
  enc.PutU32(3);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.GetU32().value_or(0), 1u);
  EXPECT_EQ(dec.GetU64().value_or(0), 2u);
  EXPECT_EQ(dec.GetU32().value_or(0), 3u);
  EXPECT_TRUE(dec.AtEnd());
}

// ---------------------------------------------------------------------------
// Field lists (Writer / Reader)
// ---------------------------------------------------------------------------

enum class Color : std::uint32_t { kRed = 1, kBlue = 7 };

struct Inner {
  std::uint32_t id = 0;
  std::string name;
  static void Xdr(auto& io, auto& m) { io(m.id, m.name); }
};

struct Outer {
  Color color = Color::kRed;
  std::optional<std::int64_t> when;
  std::vector<Inner> items;
  Buf blob;
  static void Xdr(auto& io, auto& m) { io(m.color, m.when, m.items, m.blob); }
};

TEST(XdrFieldList, WriterAndReaderRunOneListBothWays) {
  const Outer out{Color::kBlue, -2, {{1, "a"}, {2, "bcdef"}}, Bytes{9, 9, 9}};
  Encoder enc;
  Writer{enc}(out);
  const Buf wire = enc.Take();
  // enum, present flag + hyper, count, 2 x (u32 + padded string), opaque
  EXPECT_EQ(wire.size(), 4u + 4 + 8 + 4 + (4 + 8) + (4 + 12) + 8);

  Decoder dec(wire);
  Reader in(dec);
  Outer back;
  in(back);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(back.color, Color::kBlue);
  EXPECT_EQ(back.when, std::optional<std::int64_t>(-2));
  ASSERT_EQ(back.items.size(), 2u);
  EXPECT_EQ(back.items[1].name, "bcdef");
  EXPECT_EQ(back.blob, (Bytes{9, 9, 9}));
  // Decoded from a Buf, the opaque is a slice of the message: its last
  // field, 3 bytes plus 1 of padding.
  EXPECT_EQ(back.blob.data(), wire.data() + wire.size() - 4);
}

TEST(XdrFieldList, ReaderKeepsTheFirstError) {
  // A bool of 2 is kBadValue; nothing after it is read.
  const Bytes wire = {0, 0, 0, 2, 0, 0, 0, 7};
  Decoder dec(wire);
  Reader in(dec);
  bool flag = false;
  std::uint32_t next = 0;
  in(flag, next);
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(*in.error(), DecodeError::kBadValue);
  EXPECT_EQ(next, 0u);
  EXPECT_EQ(dec.pos(), 4u);
}

TEST(XdrFieldList, ArrayCountTheBufferCannotHoldIsTruncatedBeforeReserving) {
  // Three elements claimed with 8 bytes left; each takes at least 4.
  const Bytes wire = {0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2};
  Decoder dec(wire);
  Reader in(dec);
  std::vector<std::uint32_t> v;
  in(v);
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(*in.error(), DecodeError::kTruncated);
  EXPECT_EQ(v.capacity(), 0u);
}

}  // namespace
}  // namespace gvfs::xdr
