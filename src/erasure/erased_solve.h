// Erased-column solve shared by the systematic GF(256) decoders (RS, LRC).
//
// A systematic generator is [I_k ; P]. A receiver that holds data block d_j
// for every column j outside the erased set M (|M| = e) knows, for each
// parity share p_t it also holds, the syndrome
//
//   s_t = p_t - sum_{j not in M} G[t][j] * d_j = sum_{j in M} G[t][j] * d_j,
//
// so only the e x e minor G[P][M] of e chosen parity rows needs inverting:
// about e*k block operations per page instead of the k^2 of inverting and
// re-multiplying the whole k x k sub-generator. The result is the unique
// solution of the k-row system [present unit rows ; chosen parity rows], so
// it is byte-identical to a full elimination over those same rows — also
// when the shares are inconsistent (e.g. a corrupted parity block).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "erasure/matrix.h"
#include "util/types.h"

namespace lrs::erasure {

/// One candidate parity equation: generator row index (>= k) and its block.
struct ParityShare {
  std::size_t row;
  const Bytes* data;
};

/// Recovers the k data blocks of a systematic code with `generator` (n x k,
/// identity on its first k rows). `data[j]` is data block j, or nullptr when
/// column j is erased; every block (data and parity) is `len` bytes.
/// `parity` lists the candidate parity shares in priority order: the first e
/// whose restriction to the erased columns is independent of those already
/// chosen are used. Returns nullopt when fewer than e candidates qualify.
std::optional<std::vector<Bytes>> solve_erased_columns(
    const MatrixGf256& generator, std::span<const Bytes* const> data,
    std::span<const ParityShare> parity, std::size_t len);

}  // namespace lrs::erasure
