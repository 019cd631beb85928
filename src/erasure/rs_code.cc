// Systematic MDS Reed-Solomon code from a Cauchy construction.
//
// Generator G (n x k) = [ I_k ; C ] where C[r][j] = 1/(x_r + y_j) with
// x_r = r for parity row r in [0, n-k) and y_j = (n-k) + j for column j —
// all 2n-k points distinct, so every square submatrix of C is Cauchy and
// hence invertible, which makes every k x k submatrix of G invertible:
// expanding any selected identity rows reduces the determinant to a Cauchy
// minor. This is the classic Cauchy-RS construction (as used in Jerasure).
// Encode and decode are the shared linear code (code.h), with the MDS rule:
// decode from the first k distinct shares.
#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "util/check.h"

namespace lrs::erasure {

std::unique_ptr<ErasureCode> make_rs_code(std::size_t k, std::size_t n) {
  LRS_CHECK_MSG(k >= 1 && k <= n, "RS requires 1 <= k <= n");
  LRS_CHECK_MSG(n <= 255, "Cauchy RS over GF(256) supports n <= 255");
  MatrixGf256 generator(n, k);
  for (std::size_t i = 0; i < k; ++i) generator.set(i, i, 1);
  for (std::size_t r = 0; r + k < n; ++r) {
    const std::uint8_t x = static_cast<std::uint8_t>(r);
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint8_t y = static_cast<std::uint8_t>(n - k + j);
      generator.set(k + r, j, Gf256::inv(Gf256::add(x, y)));
    }
  }
  return std::make_unique<ErasureCode>("rs", std::move(generator), k,
                                       DecodeRule::kMds);
}

}  // namespace lrs::erasure
