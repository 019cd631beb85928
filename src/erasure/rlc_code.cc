// Systematic random linear codes with seed-derived parity rows.
//
// Encoded block i < k is original block i; encoded block k+r is a
// pseudorandom linear combination of the originals whose coefficients are
// derived from (seed, r) — every node holding the same preloaded seed
// regenerates identical packets, which is what lets LR-Seluge hash-chain
// them. GF(2) rows are dense random 0/1 coefficients (parity is the XOR of
// the selected blocks, an XOR-only code a mote could run); GF(256) rows are
// random bytes (near-MDS). Both are generators of the shared linear code
// (code.h): a 0/1 matrix has the same rank over GF(2) as over GF(256), and
// XOR is GF(256) addition, so one GF(256) encode and decode serve both
// fields. Decode succeeds once the received rows reach rank k, which is why
// the nominal threshold k' exceeds k.
#include <algorithm>

#include "erasure/code.h"
#include "erasure/matrix.h"
#include "util/check.h"
#include "util/rng.h"

namespace lrs::erasure {

namespace {

std::uint64_t row_seed(std::uint64_t seed, std::size_t row) {
  // splitmix-style mix so adjacent rows decorrelate.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (row + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// [I_k ; P] with parity row r drawn from row_seed(seed, r) — fair bits
/// for GF(2), uniform bytes for GF(256) — and redrawn while all zero.
std::unique_ptr<ErasureCode> make_rlc(std::size_t k, std::size_t n,
                                      std::size_t delta, std::uint64_t seed,
                                      bool gf256) {
  LRS_CHECK_MSG(k >= 1 && k <= n, "RLC requires 1 <= k <= n");
  MatrixGf256 generator(n, k);
  for (std::size_t i = 0; i < k; ++i) generator.set(i, i, 1);
  for (std::size_t r = 0; r + k < n; ++r) {
    Rng rng(row_seed(seed, r));
    const MutByteView row = generator.row(k + r);
    do {
      for (auto& c : row) {
        c = static_cast<std::uint8_t>(gf256 ? rng.uniform(256)
                                            : rng.bernoulli(0.5));
      }
    } while (std::all_of(row.begin(), row.end(),
                         [](std::uint8_t c) { return c == 0; }));
  }
  return std::make_unique<ErasureCode>(gf256 ? "rlc256" : "rlc2",
                                       std::move(generator),
                                       std::min(n, k + delta),
                                       DecodeRule::kRank);
}

}  // namespace

std::unique_ptr<ErasureCode> make_rlc_gf2(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed) {
  LRS_CHECK(k + delta <= n || delta == 0 || k == n);
  return make_rlc(k, n, delta, seed, /*gf256=*/false);
}

std::unique_ptr<ErasureCode> make_rlc_gf256(std::size_t k, std::size_t n,
                                            std::size_t delta,
                                            std::uint64_t seed) {
  return make_rlc(k, n, delta, seed, /*gf256=*/true);
}

}  // namespace lrs::erasure
