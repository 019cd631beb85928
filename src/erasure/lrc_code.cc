// Pyramid-style Locally Repairable Code (LRC) over GF(256).
//
// Geometry: the k data blocks split into g contiguous groups of k/g blocks
// (g = lrc_group_count(k, n) = largest divisor of k with g <= (n-k)/2); each
// group gets one *local* parity and the remaining r = (n-k) - g parities are
// *global*. Encoded index layout:
//
//   [0, k)        data (systematic)
//   [k, k+g)      local parities, one per group
//   [k+g, n)      global parities
//
// Construction (pyramid / Cauchy): take a base Cauchy block B of r+1 rows by
// k columns, B[t][j] = 1/(x_t + y_j) with x_t = t and y_j = (r+1) + j — all
// points distinct, so every square submatrix of B is invertible. The local
// parity of group G is row 0 of B masked to G's columns; the global parities
// are rows 1..r of B in full. (When g == 0 the parities are just plain
// Cauchy RS rows and the code degenerates to RS.)
//
// Decode threshold k' = k + g - 1, i.e. ANY n - k' = r + 1 erasures are
// survivable. Proof: let t/l/q of the r+1 erasures hit data/local/global
// blocks (t + l + q = r + 1), so r - q = t + l - 1 globals survive.
//  * If l >= 1: at least t full Cauchy rows survive among the globals; their
//    restriction to the t erased data columns is a t x t Cauchy submatrix,
//    hence invertible — the erased data solves from survivors alone.
//  * If l == 0: every local parity survives. Each group touched by an
//    erasure contributes the equation "row 0 of B restricted to that group's
//    erased columns" (known right-hand side after subtracting survived
//    data); summing them yields row 0 of B restricted to the full erased
//    set. Together with the t - 1 surviving globals (rows of B), a vector
//    orthogonal to all of them is orthogonal to t distinct Cauchy rows
//    restricted to t columns — an invertible system — so only 0 is, and the
//    stacked equations have full rank t.
// Either way rank k is reached from any k' = k + g - 1 blocks. The bound is
// tight: erasing one group's local parity plus r+1 of its data blocks (when
// the group is large enough) leaves fewer than k independent rows.
//
// This file only builds the generator; encode and decode are the shared
// linear code (code.h) with the rank rule. Its peel is LRC's local repair:
// a local parity whose group misses exactly one data block repairs it from
// the group alone (group size + 1 blocks instead of a k-wide solve), and
// the global rows span every column, so they wait for the erased-column
// solve (erased_solve.h), which runs only when local repair cannot complete
// the page. The erasure.lrc.{local_repairs,local_only_decodes,full_solves}
// counters record how often each path fires. (With g == 1 the one local
// parity spans every column too, so its repair counts as a full solve.)
#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "util/check.h"

namespace lrs::erasure {

std::size_t lrc_group_count(std::size_t k, std::size_t n) {
  const std::size_t m = n - k;
  if (m < 2) return 0;
  for (std::size_t g = (m / 2 < k) ? m / 2 : k; g >= 1; --g) {
    if (k % g == 0) return g;
  }
  return 0;
}

std::unique_ptr<ErasureCode> make_lrc_code(std::size_t k, std::size_t n) {
  LRS_CHECK_MSG(k >= 1 && k <= n, "LRC requires 1 <= k <= n");
  LRS_CHECK_MSG(n <= 255, "Cauchy LRC over GF(256) supports n <= 255");
  const std::size_t m = n - k;
  const std::size_t g = lrc_group_count(k, n);
  // Base Cauchy rows: r+1 when grouped (row 0 feeds the locals), plain m
  // when degenerate. y offsets start past the largest x so all points are
  // distinct; base + k <= 255 + 1 holds because base <= m - 1 and n <= 255.
  const std::size_t base = g > 0 ? (m - g) + 1 : m;
  auto cauchy = [&](std::size_t t, std::size_t j) {
    return Gf256::inv(Gf256::add(static_cast<std::uint8_t>(t),
                                 static_cast<std::uint8_t>(base + j)));
  };
  MatrixGf256 generator(n, k);
  for (std::size_t i = 0; i < k; ++i) generator.set(i, i, 1);
  if (g > 0) {
    const std::size_t group_size = k / g;
    for (std::size_t j = 0; j < k; ++j)
      generator.set(k + j / group_size, j, cauchy(0, j));
    for (std::size_t r = 1; r < base; ++r) {
      for (std::size_t j = 0; j < k; ++j)
        generator.set(k + g + (r - 1), j, cauchy(r, j));
    }
  } else {
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t j = 0; j < k; ++j) generator.set(k + r, j, cauchy(r, j));
    }
  }
  return std::make_unique<ErasureCode>("lrc", std::move(generator),
                                       g > 0 ? k + g - 1 : k,
                                       DecodeRule::kRank);
}

}  // namespace lrs::erasure
