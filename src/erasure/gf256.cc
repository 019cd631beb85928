#include "erasure/gf256.h"

#include "erasure/gf256_kernels.h"
#include "util/check.h"

namespace lrs::erasure {

// Scalar entry points share the sentinel-guarded log/exp tables with the
// kernel layer (see gf256_kernels.h): log[0]'s sentinel makes products with
// zero come out 0 without a branch, so mul() needs no zero guard at all.

std::uint8_t Gf256::mul(std::uint8_t a, std::uint8_t b) {
  const auto& t = detail::gf256_tables();
  return t.exp[t.log[a] + t.log[b]];
}

std::uint8_t Gf256::div(std::uint8_t a, std::uint8_t b) {
  LRS_CHECK_MSG(b != 0, "division by zero in GF(256)");
  if (a == 0) return 0;
  const auto& t = detail::gf256_tables();
  return t.exp[t.log[a] + 255 - t.log[b]];
}

std::uint8_t Gf256::inv(std::uint8_t a) {
  LRS_CHECK_MSG(a != 0, "inverse of zero in GF(256)");
  const auto& t = detail::gf256_tables();
  return t.exp[255 - t.log[a]];
}

std::uint8_t Gf256::pow(std::uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::gf256_tables();
  const unsigned le = (static_cast<unsigned>(t.log[a]) * e) % 255;
  return t.exp[le];
}

void Gf256::addmul(MutByteView dst, ByteView src, std::uint8_t coeff) {
  LRS_CHECK(dst.size() == src.size());
  gf256_kernel().addmul(dst.data(), src.data(), dst.size(), coeff);
}

void Gf256::scale(MutByteView dst, std::uint8_t coeff) {
  gf256_kernel().scale(dst.data(), dst.size(), coeff);
}

void Gf256::dot(MutByteView dst, std::span<const std::uint8_t* const> srcs,
                ByteView coeffs) {
  LRS_CHECK(srcs.size() == coeffs.size());
  gf256_kernel().dot(dst.data(), srcs.data(), coeffs.data(), srcs.size(),
                     dst.size());
}

}  // namespace lrs::erasure
