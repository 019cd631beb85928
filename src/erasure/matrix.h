// Dense matrices over GF(256) with Gaussian elimination.
//
// MatrixGf256 stores the generator of every codec (code.h) — GF(2) and LT
// rows as 0/1 bytes — plus a reference rank(); decode inverts only the
// e x e minor over the columns the peel leaves (erased_solve.h). Rateless
// dissemination eliminates incrementally as packets arrive
// (Gf256Eliminator).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace lrs::erasure {

class MatrixGf256 {
 public:
  MatrixGf256(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // Element and row access is inline with debug-only bounds checks:
  // rank() and the generator walks call these per element, and an always-on
  // check there dominates the elimination profile.
  std::uint8_t at(std::size_t r, std::size_t c) const {
    LRS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  void set(std::size_t r, std::size_t c, std::uint8_t v) {
    LRS_DCHECK(r < rows_ && c < cols_);
    data_[r * cols_ + c] = v;
  }

  /// Row r as a contiguous view.
  ByteView row(std::size_t r) const {
    LRS_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  MutByteView row(std::size_t r) {
    LRS_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Rank via elimination on a scratch copy.
  std::size_t rank() const;

  bool operator==(const MatrixGf256& other) const = default;

 private:
  std::size_t rows_, cols_;
  std::vector<std::uint8_t> data_;
};

/// Incremental GF(256) Gaussian eliminator: feed (coefficient row, payload)
/// pairs as packets arrive — the decoder of rateless random-linear-coded
/// dissemination, where the coefficient set is unbounded and decode
/// happens once rank k is reached.
class Gf256Eliminator {
 public:
  Gf256Eliminator(std::size_t k, std::size_t block_size);

  /// Adds one equation; returns true when it raised the rank.
  bool add(ByteView coeffs, ByteView payload);

  std::size_t rank() const { return rank_; }
  bool complete() const { return rank_ == k_; }

  /// Writes the k solved blocks to `out` (k * block_size bytes, block j at
  /// [j * block_size, (j+1) * block_size)); only valid when complete().
  void solve(MutByteView out) const;

 private:
  std::size_t k_;
  std::size_t block_size_;
  std::size_t rank_ = 0;
  // rows_[i], if present, is normalized with pivot 1 at column i.
  std::vector<std::optional<std::pair<Bytes, Bytes>>> rows_;
};

}  // namespace lrs::erasure
