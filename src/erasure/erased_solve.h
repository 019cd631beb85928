// The systematic linear code over GF(256): a generator [I_k ; P], its
// encode, and the erased-column solve that decodes it. Reed-Solomon and both
// random linear codes are one class (make_systematic_code) whose generator
// builders alone differ; LRC reuses the encode and the solve beneath its
// local repair.
//
// A receiver that holds data block d_j for every column j outside the
// erased set M (|M| = e) knows, for each parity share p_t it also holds,
// the syndrome
//
//   s_t = p_t - sum_{j not in M} G[t][j] * d_j = sum_{j in M} G[t][j] * d_j,
//
// so only the e x e minor G[P][M] of e chosen parity rows needs inverting:
// about e*k block operations per page instead of the k^2 of inverting and
// re-multiplying the whole k x k sub-generator. The result is the unique
// solution of the k-row system [present unit rows ; chosen parity rows], so
// it is byte-identical to a full elimination over those same rows — also
// when the shares are inconsistent (e.g. a corrupted parity block). The
// whole system reaches rank k exactly when e parity rows restricted to M
// are independent, so the solve succeeds exactly when a full elimination
// over the same shares would, whatever the field of the coefficients: a
// GF(2) generator stored as 0/1 bytes has the same rank over GF(256).
//
// Every parity block, syndrome and erased column is one fused Gf256::dot
// over its sources. Pages are contiguous (code.h): block j of a k-block
// page of `len`-byte blocks is bytes [j * len, (j+1) * len).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "erasure/code.h"
#include "erasure/matrix.h"
#include "util/types.h"

namespace lrs::erasure {

/// Writes the n = generator.rows() encoded blocks of `data` (k =
/// generator.cols() blocks) to `out`: the identity rows as copies, each
/// parity row as one dot over its nonzero coefficients. `out` must not
/// overlap `data`.
void encode_systematic(const MatrixGf256& generator, ByteView data,
                       MutByteView out);

/// One candidate parity equation: generator row index (>= k) and its block.
struct ParityShare {
  std::size_t row;
  const std::uint8_t* data;
};

/// Recovers the k data blocks of a systematic code with `generator` (n x k,
/// identity on its first k rows) into `out` (k * len bytes). `data[j]` is
/// data block j, or nullptr when column j is erased; a present block may
/// already sit in its own slot of `out`. Every block (data and parity) is
/// `len` bytes. `parity` lists the candidate parity shares in priority
/// order: the first e whose restriction to the erased columns is
/// independent of those already chosen are used. Returns false, with
/// `out` untouched, when fewer than e candidates qualify. Scratch is
/// thread-local: no heap allocation once warm.
bool solve_erased_columns(const MatrixGf256& generator,
                          std::span<const std::uint8_t* const> data,
                          std::span<const ParityShare> parity,
                          MutByteView out);

/// The codec of a systematic `generator` (n x k, identity on its first k
/// rows): encode_systematic, and decode through solve_erased_columns.
/// `name` is the codec spelling; it also keys the erasure.<name>.{encode,
/// decode} timers. An `mds` generator decodes from the first k distinct
/// shares in arrival order, and a failed solve there is a bug; any other
/// offers the solve every distinct share, which takes the first independent
/// parity rows in arrival order. `threshold` is decode_threshold().
std::unique_ptr<ErasureCode> make_systematic_code(std::string name,
                                                  MatrixGf256 generator,
                                                  std::size_t threshold,
                                                  bool mds);

}  // namespace lrs::erasure
