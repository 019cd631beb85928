// Fixed-rate LT code (Luby, FOCS'02) — the paper's §II-C lists LT codes as
// a typical erasure code, and they are the canonical instance of the
// "k' > k" decode overhead LR-Seluge's analysis assumes.
//
// Encoded packet i draws a degree d_i from the robust soliton distribution
// and XORs d_i pseudorandomly chosen blocks; both draws derive from the
// preloaded seed and the packet index, so every node regenerates identical
// packets (required for hash chaining). This file only builds the generator
// — row i holds 1 at each of packet i's blocks — and the shared linear code
// (code.h) encodes it (an XOR is a dot over 0/1 coefficients) and decodes
// it with the peel rule: the classic peeling process, where a packet with
// one unknown block releases it and the ripple repeats, failing soft if it
// dries up before all k blocks are known — the caller simply keeps
// collecting packets.
#include <algorithm>
#include <cmath>
#include <vector>

#include "erasure/code.h"
#include "erasure/erased_solve.h"
#include "erasure/matrix.h"
#include "util/check.h"
#include "util/rng.h"

namespace lrs::erasure {

namespace {

std::uint64_t packet_seed(std::uint64_t base, std::size_t index) {
  std::uint64_t z = base + 0x632be59bd9b4e019ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Robust soliton distribution (c = 0.1, delta = 0.5), precomputed CDF.
std::vector<double> robust_soliton_cdf(std::size_t k) {
  const double c = 0.1;
  const double delta = 0.5;
  const double r = c * std::log(k / delta) * std::sqrt(static_cast<double>(k));
  const auto spike = std::max<std::size_t>(
      1, std::min(k, static_cast<std::size_t>(k / std::max(1.0, r))));

  std::vector<double> p(k + 1, 0.0);
  // Ideal soliton rho.
  p[1] = 1.0 / static_cast<double>(k);
  for (std::size_t d = 2; d <= k; ++d)
    p[d] = 1.0 / (static_cast<double>(d) * static_cast<double>(d - 1));
  // Robust correction tau.
  for (std::size_t d = 1; d < spike; ++d)
    p[d] += r / (static_cast<double>(d) * static_cast<double>(k));
  p[spike] += r * std::log(r / delta) / static_cast<double>(k);

  double total = 0.0;
  for (std::size_t d = 1; d <= k; ++d) total += p[d];
  std::vector<double> cdf(k + 1, 0.0);
  double acc = 0.0;
  for (std::size_t d = 1; d <= k; ++d) {
    acc += p[d] / total;
    cdf[d] = acc;
  }
  cdf[k] = 1.0;
  return cdf;
}

/// The sorted blocks of encoded packet `index`: a robust-soliton degree,
/// then that many distinct blocks by partial Fisher-Yates.
std::vector<std::size_t> draw_neighbors(std::size_t k,
                                        const std::vector<double>& cdf,
                                        std::uint64_t seed, std::size_t index,
                                        std::uint64_t salt) {
  Rng rng(packet_seed(seed ^ (salt * 0x9e3779b97f4a7c15ULL), index));
  const double u = rng.uniform01();
  std::size_t degree = 1;
  while (degree < k && cdf[degree] < u) ++degree;
  std::vector<std::size_t> idx(k);
  for (std::size_t j = 0; j < k; ++j) idx[j] = j;
  for (std::size_t j = 0; j < degree; ++j)
    std::swap(idx[j], idx[j + rng.uniform(k - j)]);
  idx.resize(degree);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace

std::unique_ptr<ErasureCode> make_lt_code(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed) {
  LRS_CHECK_MSG(k >= 1 && k <= n, "LT requires 1 <= k <= n");
  const std::vector<double> cdf = robust_soliton_cdf(k);
  // A fixed-rate LT instance must be decodable from the FULL packet set,
  // or a page could never complete. Re-salt deterministically until the
  // full set peels — every node derives the same instance.
  for (std::uint64_t salt = 0;; ++salt) {
    MatrixGf256 generator(n, k);
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::size_t j : draw_neighbors(k, cdf, seed, i, salt))
        generator.set(i, j, 1);
    }
    std::vector<std::size_t> rows(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
    std::vector<std::uint8_t> known(k, 0);
    std::vector<PeelStep> steps;
    if (peel(RowSupports(generator), /*skip_spanning=*/false, rows, known,
             steps) == k) {
      return std::make_unique<ErasureCode>("lt", std::move(generator),
                                           std::min(n, k + delta),
                                           DecodeRule::kPeel);
    }
    LRS_CHECK_MSG(salt < 1000, "LT instance unreachable (n too small?)");
  }
}

}  // namespace lrs::erasure
