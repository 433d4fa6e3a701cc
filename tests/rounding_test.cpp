//===- rounding_test.cpp - FP16 / FP8 conversion pins ------------------------//
//
// The FP16 / FP8 E4M3 conversions in sim/Numerics.h are pinned bit-for-bit
// against the out-of-line definitions they replaced (copied verbatim below,
// renamed old*), over every FP16 and FP8 bit pattern, every rounding
// midpoint of both formats and its neighbours one f32 ulp away, and a
// million seeded f32 values covering normals, subnormals, +-inf and NaN.
//
//===----------------------------------------------------------------------===//

#include "sim/Numerics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

using namespace tawa::sim;

namespace {

//===----------------------------------------------------------------------===//
// The historical out-of-line conversions, verbatim.
//===----------------------------------------------------------------------===//

uint16_t oldFp32ToFp16Bits(float X) {
  uint32_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  uint32_t Sign = (Bits >> 16) & 0x8000u;
  int32_t Exp = static_cast<int32_t>((Bits >> 23) & 0xFF) - 127 + 15;
  uint32_t Mant = Bits & 0x7FFFFFu;

  if (((Bits >> 23) & 0xFF) == 0xFF) {
    // Inf / NaN.
    return static_cast<uint16_t>(Sign | 0x7C00u | (Mant ? 0x200u : 0));
  }
  if (Exp >= 0x1F)
    return static_cast<uint16_t>(Sign | 0x7C00u); // Overflow -> inf.
  if (Exp <= 0) {
    // Subnormal or underflow to zero.
    if (Exp < -10)
      return static_cast<uint16_t>(Sign);
    Mant |= 0x800000u; // Implicit bit.
    uint32_t Shift = static_cast<uint32_t>(14 - Exp);
    uint32_t Rounded = Mant >> Shift;
    uint32_t Rem = Mant & ((1u << Shift) - 1);
    uint32_t Half = 1u << (Shift - 1);
    if (Rem > Half || (Rem == Half && (Rounded & 1)))
      ++Rounded;
    return static_cast<uint16_t>(Sign | Rounded);
  }
  // Normal: round mantissa from 23 to 10 bits (RNE).
  uint32_t Rounded = Mant >> 13;
  uint32_t Rem = Mant & 0x1FFFu;
  if (Rem > 0x1000u || (Rem == 0x1000u && (Rounded & 1)))
    ++Rounded;
  // The mantissa rounding carry may propagate into the exponent field; the
  // addition handles that (possibly overflowing to inf, which is correct).
  uint32_t Result = Sign | ((static_cast<uint32_t>(Exp) << 10) + Rounded);
  return static_cast<uint16_t>(Result);
}

float oldFp16BitsToFp32(uint16_t Bits) {
  uint32_t Sign = (Bits & 0x8000u) << 16;
  uint32_t Exp = (Bits >> 10) & 0x1F;
  uint32_t Mant = Bits & 0x3FFu;
  uint32_t Out;
  if (Exp == 0x1F) {
    Out = Sign | 0x7F800000u | (Mant << 13);
  } else if (Exp == 0) {
    if (Mant == 0) {
      Out = Sign;
    } else {
      // Normalize the subnormal.
      int Shift = 0;
      while (!(Mant & 0x400u)) {
        Mant <<= 1;
        ++Shift;
      }
      Mant &= 0x3FFu;
      Out = Sign | ((112 - Shift + 1) << 23) | (Mant << 13);
    }
  } else {
    Out = Sign | ((Exp + 112) << 23) | (Mant << 13);
  }
  float F;
  std::memcpy(&F, &Out, sizeof(F));
  return F;
}

float oldRoundToFp16(float X) {
  return oldFp16BitsToFp32(oldFp32ToFp16Bits(X));
}

uint8_t oldFp32ToFp8E4M3Bits(float X) {
  uint32_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  uint8_t Sign = static_cast<uint8_t>((Bits >> 24) & 0x80u);
  if (std::isnan(X))
    return static_cast<uint8_t>(Sign | 0x7Fu); // E4M3 NaN encoding.
  float A = std::fabs(X);
  if (A >= 448.0f)
    return static_cast<uint8_t>(Sign | 0x7Eu); // Saturate to ±448.
  if (A < 0x1p-10f)                            // Below half the min subnormal.
    return Sign;

  int32_t Exp = static_cast<int32_t>((Bits >> 23) & 0xFF) - 127;
  uint32_t Mant = Bits & 0x7FFFFFu;
  int32_t E4 = Exp + 7; // E4M3 bias = 7.
  if (E4 <= 0) {
    // Subnormal: value = mant * 2^-9.
    Mant |= 0x800000u;
    uint32_t Shift = static_cast<uint32_t>(20 - E4) + 1;
    uint32_t Rounded = Mant >> Shift;
    uint32_t Rem = Mant & ((1u << Shift) - 1);
    uint32_t Half = 1u << (Shift - 1);
    if (Rem > Half || (Rem == Half && (Rounded & 1)))
      ++Rounded;
    return static_cast<uint8_t>(Sign | Rounded);
  }
  uint32_t Rounded = Mant >> 20;
  uint32_t Rem = Mant & 0xFFFFFu;
  if (Rem > 0x80000u || (Rem == 0x80000u && (Rounded & 1)))
    ++Rounded;
  uint32_t Enc = (static_cast<uint32_t>(E4) << 3) + Rounded;
  if (Enc >= 0x7Fu)
    Enc = 0x7Eu; // Rounding overflowed into NaN: saturate.
  return static_cast<uint8_t>(Sign | Enc);
}

float oldFp8E4M3BitsToFp32(uint8_t Bits) {
  uint32_t Sign = (Bits & 0x80u) ? 0x80000000u : 0;
  uint32_t Exp = (Bits >> 3) & 0xFu;
  uint32_t Mant = Bits & 0x7u;
  if (Exp == 0xFu && Mant == 0x7u) {
    uint32_t Out = Sign | 0x7FC00000u;
    float F;
    std::memcpy(&F, &Out, sizeof(F));
    return F;
  }
  float Value;
  if (Exp == 0)
    Value = std::ldexp(static_cast<float>(Mant), -9); // Subnormal.
  else
    Value = std::ldexp(1.0f + static_cast<float>(Mant) / 8.0f,
                       static_cast<int>(Exp) - 7);
  float F = Sign ? -Value : Value;
  return F;
}

float oldRoundToFp8E4M3(float X) {
  return oldFp8E4M3BitsToFp32(oldFp32ToFp8E4M3Bits(X));
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

uint32_t bitsOf(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}

float fromBits(uint32_t B) {
  float F;
  std::memcpy(&F, &B, sizeof(F));
  return F;
}

/// Every conversion of \p X agrees with the historical one bit-for-bit.
::testing::AssertionResult matchesOld(float X) {
  if (fp32ToFp16Bits(X) != oldFp32ToFp16Bits(X) ||
      bitsOf(roundToFp16(X)) != bitsOf(oldRoundToFp16(X)) ||
      fp32ToFp8E4M3Bits(X) != oldFp32ToFp8E4M3Bits(X) ||
      bitsOf(roundToFp8E4M3(X)) != bitsOf(oldRoundToFp8E4M3(X)))
    return ::testing::AssertionFailure()
           << "input bits 0x" << std::hex << bitsOf(X);
  return ::testing::AssertionSuccess();
}

/// \p X and its f32 neighbours one ulp below and above.
void expectNeighbourhood(float X) {
  EXPECT_TRUE(matchesOld(X));
  EXPECT_TRUE(matchesOld(std::nextafter(X, -INFINITY)));
  EXPECT_TRUE(matchesOld(std::nextafter(X, INFINITY)));
}

//===----------------------------------------------------------------------===//
// Pins
//===----------------------------------------------------------------------===//

TEST(RoundingPin, EveryFp16BitPattern) {
  for (uint32_t B = 0; B <= 0xFFFFu; ++B) {
    uint16_t H = static_cast<uint16_t>(B);
    float F = fp16BitsToFp32(H);
    ASSERT_EQ(bitsOf(F), bitsOf(oldFp16BitsToFp32(H))) << std::hex << B;
    // Every binary16 value (and NaN payload) converts back unchanged.
    EXPECT_TRUE(matchesOld(F));
  }
}

TEST(RoundingPin, EveryFp8BitPattern) {
  for (uint32_t B = 0; B <= 0xFFu; ++B) {
    uint8_t E = static_cast<uint8_t>(B);
    float F = fp8E4M3BitsToFp32(E);
    ASSERT_EQ(bitsOf(F), bitsOf(oldFp8E4M3BitsToFp32(E))) << std::hex << B;
    EXPECT_TRUE(matchesOld(F));
  }
}

TEST(RoundingPin, Fp16MidpointsAndNeighbours) {
  // Midpoints between adjacent finite binary16 values of one sign (the
  // round-to-nearest-even ties), plus the overflow threshold past 65504.
  for (uint32_t Sign : {0u, 0x8000u})
    for (uint32_t B = 0; B < 0x7BFFu; ++B) {
      double Lo = oldFp16BitsToFp32(static_cast<uint16_t>(Sign | B));
      double Hi = oldFp16BitsToFp32(static_cast<uint16_t>(Sign | (B + 1)));
      expectNeighbourhood(static_cast<float>((Lo + Hi) / 2));
    }
  expectNeighbourhood(65520.0f);
  expectNeighbourhood(-65520.0f);
}

TEST(RoundingPin, Fp8MidpointsAndNeighbours) {
  // Midpoints between adjacent finite E4M3 values (0x00..0x7E per sign),
  // the saturation threshold at 448 and the flush-to-zero threshold.
  for (uint32_t Sign : {0u, 0x80u})
    for (uint32_t B = 0; B < 0x7Eu; ++B) {
      double Lo = oldFp8E4M3BitsToFp32(static_cast<uint8_t>(Sign | B));
      double Hi = oldFp8E4M3BitsToFp32(static_cast<uint8_t>(Sign | (B + 1)));
      expectNeighbourhood(static_cast<float>((Lo + Hi) / 2));
    }
  for (float X : {448.0f, -448.0f, 464.0f, -464.0f, 0x1p-10f, -0x1p-10f})
    expectNeighbourhood(X);
}

TEST(RoundingPin, SeededFloats) {
  // SplitMix64 bit patterns: uniform over all f32 encodings, so every
  // exponent (subnormals, inf/NaN encodings included) is well covered;
  // then the specials explicitly.
  uint64_t State = 0x5EEDull;
  for (int I = 0; I < 1000000; ++I) {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z = Z ^ (Z >> 31);
    ASSERT_TRUE(matchesOld(fromBits(static_cast<uint32_t>(Z >> 32))));
  }
  const float Inf = std::numeric_limits<float>::infinity();
  for (float X : {Inf, -Inf, std::numeric_limits<float>::quiet_NaN(),
                  -std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::signaling_NaN(),
                  std::numeric_limits<float>::denorm_min(),
                  -std::numeric_limits<float>::denorm_min(),
                  std::numeric_limits<float>::min(),
                  std::numeric_limits<float>::max(),
                  -std::numeric_limits<float>::max(), 0.0f, -0.0f})
    EXPECT_TRUE(matchesOld(X));
}

} // namespace
