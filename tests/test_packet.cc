// Wire-format round trips, MAC enforcement on control packets, and
// malformed/hostile input handling. Also covers the page layout math.
#include <gtest/gtest.h>

#include "proto/layout.h"
#include "proto/packet.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lrs::proto {
namespace {

const Bytes kKey{1, 2, 3, 4};
const crypto::HmacKey kMac{view(kKey)};

TEST(AdvertisementTest, RoundTripWithMac) {
  Advertisement a;
  a.version = 7;
  a.sender = 12;
  a.pages_complete = 5;
  a.bootstrapped = true;
  const Bytes frame = a.serialize(&kMac);
  EXPECT_EQ(peek_type(view(frame)), PacketType::kAdvertisement);
  const auto back = Advertisement::parse(view(frame), &kMac);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 7u);
  EXPECT_EQ(back->sender, 12u);
  EXPECT_EQ(back->pages_complete, 5u);
  EXPECT_TRUE(back->bootstrapped);
}

TEST(AdvertisementTest, TamperedMacRejected) {
  Advertisement a;
  a.version = 1;
  Bytes frame = a.serialize(&kMac);
  frame[2] ^= 1;
  EXPECT_FALSE(Advertisement::parse(view(frame), &kMac).has_value());
}

TEST(AdvertisementTest, WrongKeyRejected) {
  Advertisement a;
  const Bytes frame = a.serialize(&kMac);
  const crypto::HmacKey other{view(Bytes{9, 9})};
  EXPECT_FALSE(Advertisement::parse(view(frame), &other).has_value());
}

TEST(AdvertisementTest, NoKeyMeansNoMac) {
  Advertisement a;
  a.pages_complete = 3;
  const Bytes frame = a.serialize(nullptr);
  const auto back = Advertisement::parse(view(frame), nullptr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pages_complete, 3u);
}

TEST(SnackTest, RoundTripPreservesBitmap) {
  Snack s;
  s.version = 2;
  s.sender = 4;
  s.target = 9;
  s.page = 3;
  s.requested = BitVec(48);
  s.requested.set(0);
  s.requested.set(13);
  s.requested.set(47);
  const Bytes frame = s.serialize(&kMac);
  const auto back = Snack::parse(view(frame), &kMac);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->requested, s.requested);
  EXPECT_EQ(back->target, 9u);
  EXPECT_EQ(back->page, 3u);
}

TEST(SnackTest, LrBitmapIsLongerOnTheWire) {
  // Paper: LR-Seluge SNACKs are n-k bits longer than Seluge's.
  Snack lr, seluge;
  lr.requested = BitVec(48);      // n
  seluge.requested = BitVec(32);  // k
  EXPECT_EQ(lr.serialize(&kMac).size() -
                seluge.serialize(&kMac).size(),
            (48 - 32) / 8u);
}

TEST(SnackTest, SignatureRequestSentinelRoundTrips) {
  Snack s;
  s.page = kSignatureRequestPage;
  const auto back = Snack::parse(view(s.serialize(&kMac)), &kMac);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->page, kSignatureRequestPage);
}

TEST(DataPacketTest, RoundTrip) {
  DataPacket d;
  d.version = 1;
  d.page = 6;
  d.index = 40;
  d.payload = Bytes(64, 0xab);
  const Bytes frame = d.serialize();
  const auto back = DataPacket::parse(view(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->page, 6u);
  EXPECT_EQ(back->index, 40u);
  EXPECT_EQ(Bytes(back->payload.begin(), back->payload.end()), d.payload);
}

TEST(DataPacketTest, ParsedPayloadAliasesTheFrame) {
  DataPacket d;
  d.version = 2;
  d.page = 3;
  d.index = 7;
  d.payload = Bytes(64, 0x5c);
  const Bytes frame = d.serialize();
  const auto back = DataPacket::parse(view(frame));
  ASSERT_TRUE(back.has_value());
  // No copy: the payload is the frame's last 64 bytes, after the 15-byte
  // header (tag, version, page, index, u16 length).
  EXPECT_EQ(back->payload.data(), frame.data() + 15);
  EXPECT_EQ(back->payload.size(), 64u);
  EXPECT_EQ(back->payload.data() + back->payload.size(),
            frame.data() + frame.size());
  // The view serializes and hashes exactly as the owning packet does.
  EXPECT_EQ(back->serialize(), frame);
  EXPECT_EQ(back->hash_preimage(), d.hash_preimage());
}

TEST(DataPacketTest, HashPreimageBindsPosition) {
  DataPacket a, b;
  a.payload = b.payload = Bytes(8, 1);
  a.page = 1;
  b.page = 2;
  EXPECT_NE(a.hash_preimage(), b.hash_preimage());
  b.page = 1;
  b.index = 5;
  EXPECT_NE(a.hash_preimage(), b.hash_preimage());
}

TEST(DataPacketTest, MalformedInputsFailSoft) {
  Bytes garbage{3, 1, 2};  // type byte of data, then truncation
  EXPECT_FALSE(DataPacket::parse(view(garbage)).has_value());
  Bytes empty;
  EXPECT_FALSE(peek_type(view(empty)).has_value());
  Bytes unknown{200};
  EXPECT_FALSE(peek_type(view(unknown)).has_value());
}

TEST(DataPacketTest, TrailingGarbageRejected) {
  DataPacket d;
  d.payload = Bytes(4, 1);
  Bytes frame = d.serialize();
  frame.push_back(0);
  EXPECT_FALSE(DataPacket::parse(view(frame)).has_value());
}

TEST(SignaturePacketTest, RoundTrip) {
  SignaturePacket p;
  p.meta.version = 3;
  p.meta.content_pages = 12;
  p.meta.image_size = 20480;
  p.root.fill(0x5a);
  p.puzzle = {10, 777};
  p.signature = Bytes(100, 0xcd);
  const auto back = SignaturePacket::parse(view(p.serialize()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->meta.content_pages, 12u);
  EXPECT_EQ(back->meta.image_size, 20480u);
  EXPECT_EQ(back->root, p.root);
  EXPECT_EQ(back->puzzle.solution, 777u);
  EXPECT_EQ(back->signature, p.signature);
}

TEST(SignaturePacketTest, SignedMessageCoversMetaAndRoot) {
  SignaturePacket a, b;
  a.root.fill(1);
  b.root.fill(1);
  b.meta.content_pages = 99;
  EXPECT_NE(a.signed_message(), b.signed_message());
  b.meta = a.meta;
  b.root.fill(2);
  EXPECT_NE(a.signed_message(), b.signed_message());
}

// ---------------------------------------------------------------------------
// Golden wire vectors — the serialized forms below are frozen. A failure
// here means the wire format changed: deployed networks mixing old and new
// nodes would stop interoperating, so bump the version handling instead of
// updating a fixture casually.
// ---------------------------------------------------------------------------

Bytes fixture(std::string_view hex) {
  const auto b = from_hex(hex);
  EXPECT_TRUE(b.has_value());
  return *b;
}

// All MAC'd fixtures use kKey = {1, 2, 3, 4}.
const char* const kGoldenAdv = "01070000000c000000050000000199314bfa";
const char* const kGoldenSnack =
    "02020000000400000009000000030000000c002108ee1b63e0";
const char* const kGoldenSigRequest = "02020000000400000009000000ffffffff00004893a953";
const char* const kGoldenData = "0301000000060000002800000008000001020304050607";
const char* const kGoldenSignature =
    "04030000000c000000005000005a5a5a5a5a5a5a5a0a09030000000000000c00"
    "cdcdcdcdcdcdcdcdcdcdcdcd";

TEST(GoldenVectors, AdvertisementFrozen) {
  Advertisement a;
  a.version = 7;
  a.sender = 12;
  a.pages_complete = 5;
  a.bootstrapped = true;
  EXPECT_EQ(to_hex(view(a.serialize(&kMac))), kGoldenAdv);

  const auto back = Advertisement::parse(view(fixture(kGoldenAdv)), &kMac);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 7u);
  EXPECT_EQ(back->sender, 12u);
  EXPECT_EQ(back->pages_complete, 5u);
  EXPECT_TRUE(back->bootstrapped);
}

TEST(GoldenVectors, SnackFrozen) {
  Snack s;
  s.version = 2;
  s.sender = 4;
  s.target = 9;
  s.page = 3;
  s.requested = BitVec(12);
  s.requested.set(0);
  s.requested.set(5);
  s.requested.set(11);
  EXPECT_EQ(to_hex(view(s.serialize(&kMac))), kGoldenSnack);

  const auto back = Snack::parse(view(fixture(kGoldenSnack)), &kMac);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sender, 4u);
  EXPECT_EQ(back->target, 9u);
  EXPECT_EQ(back->page, 3u);
  EXPECT_EQ(back->requested.count(), 3u);
  EXPECT_EQ(Snack::peek_sender(view(fixture(kGoldenSnack))), 4u);
}

TEST(GoldenVectors, SignatureRequestFrozen) {
  Snack s;
  s.version = 2;
  s.sender = 4;
  s.target = 9;
  s.page = kSignatureRequestPage;
  EXPECT_EQ(to_hex(view(s.serialize(&kMac))), kGoldenSigRequest);

  const auto back = Snack::parse(view(fixture(kGoldenSigRequest)), &kMac);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->page, kSignatureRequestPage);
  EXPECT_TRUE(back->requested.none());
}

TEST(GoldenVectors, DataFrozen) {
  DataPacket d;
  d.version = 1;
  d.page = 6;
  d.index = 40;
  for (int i = 0; i < 8; ++i)
    d.payload.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(to_hex(view(d.serialize())), kGoldenData);

  // The parsed payload is a view, so the golden frame must outlive it.
  const Bytes golden = fixture(kGoldenData);
  const auto back = DataPacket::parse(view(golden));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->page, 6u);
  EXPECT_EQ(back->index, 40u);
  EXPECT_EQ(Bytes(back->payload.begin(), back->payload.end()), d.payload);
}

TEST(GoldenVectors, SignatureFrozen) {
  SignaturePacket p;
  p.meta.version = 3;
  p.meta.content_pages = 12;
  p.meta.image_size = 20480;
  p.root.fill(0x5a);
  p.puzzle = {10, 777};
  p.signature = Bytes(12, 0xcd);
  EXPECT_EQ(to_hex(view(p.serialize())), kGoldenSignature);

  const auto back = SignaturePacket::parse(view(fixture(kGoldenSignature)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->meta.content_pages, 12u);
  EXPECT_EQ(back->meta.image_size, 20480u);
  EXPECT_EQ(back->puzzle.strength, 10u);
  EXPECT_EQ(back->puzzle.solution, 777u);
  EXPECT_EQ(back->signature, Bytes(12, 0xcd));
}

// ---------------------------------------------------------------------------
// Fuzz decode: truncated, bit-flipped and random buffers must be rejected
// cleanly — no crash, no partially-parsed packet.
// ---------------------------------------------------------------------------

TEST(FuzzDecode, EveryTruncationCleanlyRejected) {
  for (const char* hex :
       {kGoldenAdv, kGoldenSnack, kGoldenSigRequest, kGoldenData,
        kGoldenSignature}) {
    const Bytes frame = fixture(hex);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const ByteView prefix(frame.data(), len);
      EXPECT_FALSE(Advertisement::parse(prefix, &kMac).has_value());
      EXPECT_FALSE(Snack::parse(prefix, &kMac).has_value());
      EXPECT_FALSE(DataPacket::parse(prefix).has_value());
      EXPECT_FALSE(SignaturePacket::parse(prefix).has_value());
    }
  }
}

TEST(FuzzDecode, EveryBitFlipOnControlPacketsRejected) {
  // Control traffic is MAC'd end to end: no single-bit flip anywhere in the
  // frame (header, bitmap or MAC itself) may survive verification.
  for (const char* hex : {kGoldenAdv, kGoldenSnack, kGoldenSigRequest}) {
    const Bytes frame = fixture(hex);
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      Bytes mutated = frame;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(Advertisement::parse(view(mutated), &kMac).has_value())
          << hex << " bit " << bit;
      EXPECT_FALSE(Snack::parse(view(mutated), &kMac).has_value())
          << hex << " bit " << bit;
    }
  }
}

TEST(FuzzDecode, BitFlippedDataNeverAliasesTheOriginalHash) {
  // Data packets carry no MAC — the hash chain authenticates them. Any
  // accepted bit-flipped frame must produce a different hash preimage, so
  // the per-packet hash comparison rejects it downstream.
  const Bytes frame = fixture(kGoldenData);
  const Bytes preimage = DataPacket::parse(view(frame))->hash_preimage();
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    Bytes mutated = frame;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto parsed = DataPacket::parse(view(mutated));
    if (parsed) {
      EXPECT_NE(parsed->hash_preimage(), preimage) << "bit " << bit;
    }
  }
}

TEST(FuzzDecode, RandomBuffersNeverCrashAnyParser) {
  Rng rng(0xf22);
  for (int i = 0; i < 2000; ++i) {
    Bytes buf(rng.uniform(64));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
    if (!buf.empty() && i % 2 == 0) {
      // Half the corpus gets a valid type tag so parsing goes deeper.
      buf[0] = static_cast<std::uint8_t>(1 + rng.uniform(4));
    }
    peek_type(view(buf));
    Advertisement::parse(view(buf), &kMac);
    Advertisement::parse(view(buf), nullptr);
    Snack::parse(view(buf), &kMac);
    Snack::peek_sender(view(buf));
    DataPacket::parse(view(buf));
    SignaturePacket::parse(view(buf));
  }
}

// ---------------------------------------------------------------------------
// Page layout math
// ---------------------------------------------------------------------------

TEST(LayoutTest, SinglePageWhenImageFitsLastCapacity) {
  const auto l = compute_layout(100, 50, 200);
  EXPECT_EQ(l.content_pages, 1u);
}

TEST(LayoutTest, PageCountFormula) {
  // 1000 bytes, mid 100, last 150: 1 + ceil((1000-150)/100) = 10.
  const auto l = compute_layout(1000, 100, 150);
  EXPECT_EQ(l.content_pages, 10u);
}

TEST(LayoutTest, SliceRoundTrip) {
  Bytes image(1000);
  for (std::size_t i = 0; i < image.size(); ++i)
    image[i] = static_cast<std::uint8_t>(i);
  const auto l = compute_layout(image.size(), 96, 128);
  Bytes rebuilt(image.size(), 0);
  for (std::size_t p = 1; p <= l.content_pages; ++p) {
    const Bytes slice = page_slice(view(image), l, p);
    EXPECT_EQ(slice.size(), p < l.content_pages ? 96u : 128u);
    place_slice(rebuilt, l, p, view(slice));
  }
  EXPECT_EQ(rebuilt, image);
}

TEST(LayoutTest, LastPagePadsWithZeros) {
  Bytes image(130, 0xff);
  const auto l = compute_layout(image.size(), 100, 100);
  EXPECT_EQ(l.content_pages, 2u);
  const Bytes last = page_slice(view(image), l, 2);
  EXPECT_EQ(last.size(), 100u);
  EXPECT_EQ(last[29], 0xff);
  EXPECT_EQ(last[30], 0x00);  // padding
}

TEST(LayoutTest, SplitBlocksPadsEvenly) {
  Bytes data(10, 7);
  const auto blocks = split_blocks(view(data), 4);
  ASSERT_EQ(blocks.size(), 4u);
  for (const auto& b : blocks) EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(blocks[3][0], 7);   // byte 9
  EXPECT_EQ(blocks[3][1], 0);   // padding
}

TEST(LayoutTest, SplitFixedUsesExactBlockSize) {
  Bytes data(10, 9);
  const auto blocks = split_fixed(view(data), 4, 3);
  ASSERT_EQ(blocks.size(), 3u);
  for (const auto& b : blocks) EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(blocks[2][1], 9);
  EXPECT_EQ(blocks[2][2], 0);
  EXPECT_THROW(split_fixed(view(data), 4, 2), std::logic_error);
}

TEST(LayoutTest, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(17), 32u);
}

}  // namespace
}  // namespace lrs::proto
