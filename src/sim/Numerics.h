//===- Numerics.h - FP16 / FP8 software arithmetic --------------*- C++ -*-===//
//
// Software models of the reduced-precision formats the tensor cores consume:
// IEEE binary16 and FP8 E4M3 (the OCP variant Hopper implements), both with
// round-to-nearest-even. Kernel data is stored as f32 but round-tripped
// through these conversions wherever the real hardware would quantize, so
// the end-to-end numeric tests exercise genuine precision behaviour.
//
// Inline: the conversions run once per element of every rounded tensor
// (host inputs, references, reduced-precision tiles), so a call per value
// was a measurable share of functional runs.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_NUMERICS_H
#define TAWA_SIM_NUMERICS_H

#include <cmath>
#include <cstdint>
#include <cstring>

namespace tawa {
namespace sim {

/// Raw conversions (also exercised directly by the unit tests).
inline uint16_t fp32ToFp16Bits(float X) {
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

inline float fp16BitsToFp32(uint16_t Bits) {
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

/// Converts f32 to IEEE binary16 (round-to-nearest-even) and back.
inline float roundToFp16(float X) {
  return fp16BitsToFp32(fp32ToFp16Bits(X));
}

inline uint8_t fp32ToFp8E4M3Bits(float X) {
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

inline float fp8E4M3BitsToFp32(uint8_t Bits) {
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

/// Converts f32 to FP8 E4M3 (4 exponent bits, 3 mantissa bits, finite range
/// ±448, no infinities) and back, round-to-nearest-even with saturation.
inline float roundToFp8E4M3(float X) {
  return fp8E4M3BitsToFp32(fp32ToFp8E4M3Bits(X));
}

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_NUMERICS_H
