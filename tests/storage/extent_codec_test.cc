// Seeded property/fuzz suite for the extent codec: every encoding must
// round-trip bit-exactly over randomized and adversarial distributions,
// and the decoder must reject (never crash on, never silently accept) any
// corrupted frame — truncations, bit flips, and forged headers whose CRC
// was left stale.
//
// ANKER_FUZZ_ITERS overrides the iteration count of the randomized
// sections (smoke default 60; the nightly fuzz sweep in
// .github/workflows runs 2000 under ASan and TSan).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/extent_codec.h"
#include "wal/crc32c.h"
#include "wal/wal_format.h"

namespace anker::storage {
namespace {

size_t FuzzIters() {
  if (const char* env = std::getenv("ANKER_FUZZ_ITERS")) {
    return static_cast<size_t>(std::atoll(env));
  }
  return 60;
}

/// Encode -> decode -> compare, returning the encoding the encoder chose.
ExtentEncoding RoundTrip(const std::vector<uint64_t>& slots, ValueType type) {
  ExtentEncoding chosen = ExtentEncoding::kPlainU64;
  const std::string frame =
      EncodeExtent(slots.data(), slots.size(), type, &chosen);
  auto rows = ExtentRowCount(frame);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (rows.ok()) {
    EXPECT_EQ(rows.value(), slots.size());
  }
  std::vector<uint64_t> decoded;
  const Status s = DecodeExtent(frame, &decoded);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(decoded, slots) << "lossy round trip under "
                            << ExtentEncodingName(chosen);
  return chosen;
}

/// One adversarial or randomized distribution, keyed by `shape`. Shapes
/// cover the edges each encoding is most likely to mishandle: all-equal
/// (1-entry dictionary, 0-bit indices), alternating INT64_MIN/MAX (FOR
/// range overflow), dict-miss (> kMaxExtentDictEntries distinct values),
/// tight FOR ranges, sign-boundary straddles, and plain chaos.
std::vector<uint64_t> MakeSlots(Rng& rng, int shape) {
  const size_t n = 1 + rng.NextBounded(4096);
  std::vector<uint64_t> slots(n);
  switch (shape) {
    case 0: {  // All equal (zero-width packing).
      const uint64_t v = rng.Next();
      for (auto& s : slots) s = v;
      break;
    }
    case 1: {  // Alternating extremes: INT64_MIN / INT64_MAX.
      for (size_t i = 0; i < n; ++i) {
        slots[i] = static_cast<uint64_t>(
            (i & 1) != 0 ? std::numeric_limits<int64_t>::max()
                         : std::numeric_limits<int64_t>::min());
      }
      break;
    }
    case 2: {  // Small dictionary, random draw.
      const size_t card = 1 + rng.NextBounded(16);
      std::vector<uint64_t> dict(card);
      for (auto& d : dict) d = rng.Next();
      for (auto& s : slots) s = dict[rng.NextBounded(card)];
      break;
    }
    case 3: {  // Dict miss: every slot distinct.
      for (size_t i = 0; i < n; ++i) slots[i] = (rng.Next() << 16) | i;
      break;
    }
    case 4: {  // Tight FOR range around a random (possibly negative) base.
      const int64_t base = rng.NextInRange(-1'000'000'000, 1'000'000'000);
      for (auto& s : slots) {
        s = static_cast<uint64_t>(base + rng.NextInRange(0, 255));
      }
      break;
    }
    case 5: {  // Straddle the int64 sign boundary.
      for (auto& s : slots) {
        s = static_cast<uint64_t>(rng.NextInRange(-3, 3));
      }
      break;
    }
    default: {  // Uniform chaos.
      for (auto& s : slots) s = rng.Next();
      break;
    }
  }
  return slots;
}

TEST(ExtentCodecTest, EmptyExtentRoundTrips) {
  const std::vector<uint64_t> empty;
  RoundTrip(empty, ValueType::kInt64);
  std::string frame = EncodeExtent(nullptr, 0, ValueType::kDouble, nullptr);
  std::vector<uint64_t> decoded{42};
  ASSERT_TRUE(DecodeExtent(frame, &decoded).ok());
  EXPECT_TRUE(decoded.empty());

  // The encoder never picks the dictionary for zero rows, but a
  // well-formed zero-row frame with an empty dictionary decodes too.
  std::string dict_frame;
  wal::PutU32(&dict_frame, kExtentMagic);
  wal::PutU8(&dict_frame, kExtentVersion);
  wal::PutU8(&dict_frame, static_cast<uint8_t>(ExtentEncoding::kDictU64));
  wal::PutU8(&dict_frame, 0);
  wal::PutU8(&dict_frame, 0);
  wal::PutU64(&dict_frame, 0);  // rows
  wal::PutU64(&dict_frame, 4);  // payload: the entry count alone
  wal::PutU32(&dict_frame, 0);  // dictionary entries
  wal::PutU32(&dict_frame, wal::MaskCrc(wal::Crc32c(0, dict_frame.data(),
                                                    dict_frame.size())));
  decoded = {42};
  ASSERT_TRUE(DecodeExtent(dict_frame, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ExtentCodecTest, AllEqualPicksCompactEncoding) {
  std::vector<uint64_t> slots(2048, 0xDEADBEEFCAFEF00Dull);
  const ExtentEncoding chosen = RoundTrip(slots, ValueType::kInt64);
  EXPECT_NE(chosen, ExtentEncoding::kPlainU64)
      << "a constant column must compress";
}

TEST(ExtentCodecTest, ExtremesRoundTripUnderEveryType) {
  Rng rng(0xA5EED);
  for (ValueType type :
       {ValueType::kInt64, ValueType::kDouble, ValueType::kDict32}) {
    for (int shape = 0; shape < 7; ++shape) {
      RoundTrip(MakeSlots(rng, shape), type);
    }
  }
}

TEST(ExtentCodecTest, DictMissFallsBackLosslessly) {
  // More distinct values than kMaxExtentDictEntries: the dictionary
  // candidate must bail, and whatever wins must still round-trip.
  std::vector<uint64_t> slots(kMaxExtentDictEntries + 512);
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = 0x8000000000000000ull ^ (i * 0x9E3779B97F4A7C15ull);
  }
  RoundTrip(slots, ValueType::kInt64);
}

TEST(ExtentCodecTest, RandomizedRoundTripSweep) {
  Rng rng(20260809);
  const size_t iters = FuzzIters();
  for (size_t iter = 0; iter < iters; ++iter) {
    const int shape = static_cast<int>(rng.NextBounded(7));
    const ValueType type = rng.NextBool(0.5) ? ValueType::kInt64
                           : rng.NextBool(0.5)
                               ? ValueType::kDouble
                               : ValueType::kDict32;
    RoundTrip(MakeSlots(rng, shape), type);
  }
}

TEST(ExtentCodecTest, TruncationAlwaysRejected) {
  Rng rng(777);
  const size_t iters = FuzzIters();
  std::vector<uint64_t> decoded;
  for (size_t iter = 0; iter < iters; ++iter) {
    const std::string frame = EncodeExtent(
        MakeSlots(rng, static_cast<int>(iter % 7)).data(),
        1 + iter % 257, ValueType::kInt64, nullptr);
    // Every strict prefix must fail cleanly — including cuts inside the
    // header, inside the payload, and one byte short of the trailer.
    for (size_t cut : {size_t{0}, size_t{3}, kExtentHeaderBytes - 1,
                       kExtentHeaderBytes, frame.size() / 2,
                       frame.size() - 1}) {
      if (cut >= frame.size()) continue;
      decoded.assign(9, 9);
      EXPECT_FALSE(
          DecodeExtent(std::string_view(frame.data(), cut), &decoded).ok())
          << "accepted a " << cut << "-byte prefix of a " << frame.size()
          << "-byte frame";
    }
    EXPECT_FALSE(ExtentRowCount(std::string_view(
                     frame.data(), std::min(frame.size() - 1,
                                            kExtentHeaderBytes)))
                     .ok());
  }
}

TEST(ExtentCodecTest, BitFlipsAlwaysRejected) {
  Rng rng(31337);
  const size_t iters = FuzzIters();
  std::vector<uint64_t> decoded;
  for (size_t iter = 0; iter < iters; ++iter) {
    std::vector<uint64_t> slots = MakeSlots(rng, static_cast<int>(iter % 7));
    std::string frame =
        EncodeExtent(slots.data(), slots.size(), ValueType::kInt64, nullptr);
    // Flip one random bit anywhere in the frame: header, payload or CRC.
    const size_t byte = rng.NextBounded(frame.size());
    const uint8_t bit = static_cast<uint8_t>(1u << rng.NextBounded(8));
    frame[byte] = static_cast<char>(
        static_cast<uint8_t>(frame[byte]) ^ bit);
    decoded.clear();
    const Status s = DecodeExtent(frame, &decoded);
    if (s.ok()) {
      // The only way a flip may pass is if it flipped back to the same
      // bytes — impossible for a single flip. Decoding to the original
      // values would at least be harmless; anything else is corruption
      // accepted as truth.
      ADD_FAILURE() << "bit flip at byte " << byte << " (mask "
                    << static_cast<int>(bit) << ") decoded OK";
    }
  }
}

TEST(ExtentCodecTest, ForgedLengthFieldsRejectedBeforeAllocation) {
  // A hostile frame advertising kMaxExtentRows+1 rows (or a payload_len
  // pointing past the buffer) must be rejected without sizing a vector
  // from the forged field — CRC is stale on every forgery by definition,
  // but the guards must hold even if an attacker recomputed it.
  std::vector<uint64_t> slots{1, 2, 3};
  std::string frame =
      EncodeExtent(slots.data(), slots.size(), ValueType::kInt64, nullptr);
  std::string forged = frame;
  const uint64_t huge_rows = static_cast<uint64_t>(kMaxExtentRows) + 1;
  std::memcpy(&forged[8], &huge_rows, sizeof(huge_rows));
  std::vector<uint64_t> decoded;
  EXPECT_FALSE(DecodeExtent(forged, &decoded).ok());
  EXPECT_FALSE(ExtentRowCount(forged).ok());

  forged = frame;
  const uint64_t huge_payload = 1ull << 40;
  std::memcpy(&forged[16], &huge_payload, sizeof(huge_payload));
  EXPECT_FALSE(DecodeExtent(forged, &decoded).ok());

  forged = frame;
  forged[4] = static_cast<char>(kExtentVersion + 1);  // Unknown version.
  EXPECT_FALSE(DecodeExtent(forged, &decoded).ok());
  forged = frame;
  forged[5] = 17;  // Unknown encoding byte.
  EXPECT_FALSE(DecodeExtent(forged, &decoded).ok());
}

/// Same seed, same frames: a reported failing iteration must replay.
TEST(ExtentCodecTest, GeneratorAndEncoderAreDeterministic) {
  Rng a(4242), b(4242);
  for (int i = 0; i < 25; ++i) {
    const std::vector<uint64_t> sa = MakeSlots(a, i % 7);
    const std::vector<uint64_t> sb = MakeSlots(b, i % 7);
    ASSERT_EQ(sa, sb) << "iteration " << i;
    EXPECT_EQ(EncodeExtent(sa.data(), sa.size(), ValueType::kInt64, nullptr),
              EncodeExtent(sb.data(), sb.size(), ValueType::kInt64, nullptr))
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace anker::storage
