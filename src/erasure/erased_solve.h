// The two steps of every decode of the linear code (code.h): peel, then the
// erased-column solve.
//
// Peel. A received row whose support has exactly one column still unknown
// solves that column: one dot over the row's other known columns, with the
// inverse of the column's coefficient folded into every term. Solving a
// column can leave another row with one unknown, so the peel repeats until
// no row qualifies. LRC's local repair, LT's ripple and the placement of a
// systematic code's data shares are all this one step. Peeling a column
// keeps the rank of what is left, so peel-then-solve succeeds exactly when
// a full elimination over the same rows would.
//
// Solve. A receiver that knows block d_j for every column j outside the
// unknown set M (|M| = e) knows, for each remaining row p_t, the syndrome
//
//   s_t = p_t - sum_{j not in M} G[t][j] * d_j = sum_{j in M} G[t][j] * d_j,
//
// so only the e x e minor G[P][M] of e chosen rows needs inverting: about
// e*k block operations per page instead of the k^2 of inverting and
// re-multiplying a whole k x k sub-generator. The result is the unique
// solution of the k-row system [known columns ; chosen rows], so it is
// byte-identical to a full elimination over those same rows — also when the
// shares are inconsistent (e.g. a corrupted parity block). The system
// reaches rank k exactly when e rows restricted to M are independent,
// whatever the field of the coefficients: a GF(2) generator stored as 0/1
// bytes has the same rank over GF(256).
//
// Every syndrome and solved column is one fused Gf256::dot over its
// sources. Pages are contiguous (code.h): block j of a k-block page of
// `len`-byte blocks is bytes [j * len, (j+1) * len).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "erasure/matrix.h"
#include "util/types.h"

namespace lrs::erasure {

/// The nonzero columns of every generator row, row after row, and the
/// column each unit row copies.
class RowSupports {
 public:
  static constexpr std::size_t kNoCopy = static_cast<std::size_t>(-1);

  explicit RowSupports(const MatrixGf256& generator);

  std::size_t columns() const { return columns_; }

  /// Columns j with G[r][j] != 0, ascending.
  std::span<const std::uint32_t> row(std::size_t r) const {
    return std::span<const std::uint32_t>(cols_).subspan(
        begin_[r], begin_[r + 1] - begin_[r]);
  }

  /// The column row r copies (its one nonzero coefficient is 1), or kNoCopy.
  std::size_t copies(std::size_t r) const { return copies_[r]; }

 private:
  std::size_t columns_;
  std::vector<std::uint32_t> begin_;  // rows + 1 offsets into cols_
  std::vector<std::uint32_t> cols_;
  std::vector<std::size_t> copies_;
};

/// One peel: generator row `row` solves column `col`.
struct PeelStep {
  std::size_t row;
  std::size_t col;
};

/// The structural peel, with no data (code.h's decode replays `steps` over
/// the blocks). `known` flags, one byte per column, the columns known on
/// entry, and on return also those the peel solved; `steps` returns the
/// solving rows in the order they fired. Passes over `rows` (generator row
/// indices, in the order to try them) until one solves nothing: a row with
/// exactly one unknown column in its support solves it. When
/// `skip_spanning`, a row whose support is every column takes no part: it
/// can solve only the last unknown column, which the solve does at the same
/// cost. `rows` keeps, in order, the rows that still
/// have an unknown column in their support or took no part: the solve's
/// candidates. Returns the number of columns known.
std::size_t peel(const RowSupports& supports, bool skip_spanning,
                 std::vector<std::size_t>& rows,
                 std::vector<std::uint8_t>& known,
                 std::vector<PeelStep>& steps);

/// One candidate equation of the solve: generator row index and its block.
struct ParityShare {
  std::size_t row;
  const std::uint8_t* data;
};

/// Recovers the k columns of `generator` (n x k) into `out` (k * len
/// bytes). `data[j]` is block j, or nullptr when column j is unknown; a
/// known block may already sit in its own slot of `out`. Every block is
/// `len` bytes. `parity` lists the candidate rows in priority order: the
/// first e whose restriction to the unknown columns is independent of
/// those already chosen are used. Returns false, with `out` untouched, when
/// fewer than e candidates qualify. Scratch is thread-local: no heap
/// allocation once warm.
bool solve_erased_columns(const MatrixGf256& generator,
                          std::span<const std::uint8_t* const> data,
                          std::span<const ParityShare> parity,
                          MutByteView out);

}  // namespace lrs::erasure
