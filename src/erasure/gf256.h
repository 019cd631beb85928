// Arithmetic in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.
//
// Foundation for the Reed-Solomon and GF(256) random-linear erasure codes.
// Multiplication/division go through log/exp tables built once at startup.
#pragma once

#include <cstdint>
#include <span>

#include "util/types.h"

namespace lrs::erasure {

class Gf256 {
 public:
  /// Addition and subtraction coincide (XOR).
  static std::uint8_t add(std::uint8_t a, std::uint8_t b) { return a ^ b; }

  static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
  /// b must be non-zero.
  static std::uint8_t div(std::uint8_t a, std::uint8_t b);
  /// a must be non-zero.
  static std::uint8_t inv(std::uint8_t a);
  static std::uint8_t pow(std::uint8_t a, unsigned e);

  /// dst[i] ^= coeff * src[i] for every byte — the inner loop of all
  /// encode/decode paths.
  static void addmul(MutByteView dst, ByteView src, std::uint8_t coeff);
  /// dst[i] = coeff * dst[i].
  static void scale(MutByteView dst, std::uint8_t coeff);
  /// dst[i] = XOR_s coeffs[s] * srcs[s][i], one fused pass over dst; every
  /// source is dst.size() bytes and none overlaps dst.
  static void dot(MutByteView dst, std::span<const std::uint8_t* const> srcs,
                  ByteView coeffs);
};

}  // namespace lrs::erasure
