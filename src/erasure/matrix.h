// Dense matrices over GF(256) and GF(2) with Gaussian elimination.
//
// RS and LRC invert only the e x e minor over their erased columns
// (erased_solve.h); the random linear codes eliminate over every received
// row, and rateless dissemination eliminates incrementally as packets arrive.
// MatrixGf256 itself is the generator store plus a reference rank().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bitvec.h"
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

  /// The k solved blocks; only valid when complete().
  std::vector<Bytes> solve() const;

 private:
  std::size_t k_;
  std::size_t block_size_;
  std::size_t rank_ = 0;
  // rows_[i], if present, is normalized with pivot 1 at column i.
  std::vector<std::optional<std::pair<Bytes, Bytes>>> rows_;
};

/// Incremental GF(2) Gaussian eliminator: feed (coefficient row, payload)
/// pairs as packets arrive; reports when full rank is reached and back-
/// substitutes the original blocks. Row-reduced echelon is maintained so the
/// cost is spread over arrivals — what a sensor node would actually run.
class Gf2Eliminator {
 public:
  /// `k` unknowns, each payload `block_size` bytes.
  Gf2Eliminator(std::size_t k, std::size_t block_size);

  /// Adds one equation: sum of unknowns selected by `coeffs` == payload.
  /// Returns true if the equation was innovative (raised the rank).
  bool add(const BitVec& coeffs, ByteView payload);

  std::size_t rank() const { return rank_; }
  bool complete() const { return rank_ == k_; }

  /// The k solved blocks; only valid when complete().
  std::vector<Bytes> solve() const;

 private:
  std::size_t k_;
  std::size_t block_size_;
  std::size_t rank_ = 0;
  // rows_[i], if present, has pivot at column i.
  std::vector<std::optional<std::pair<BitVec, Bytes>>> rows_;
};

}  // namespace lrs::erasure
