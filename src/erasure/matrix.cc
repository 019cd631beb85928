#include "erasure/matrix.h"

#include <utility>

#include "erasure/gf256.h"
#include "util/check.h"

namespace lrs::erasure {

MatrixGf256::MatrixGf256(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

std::size_t MatrixGf256::rank() const {
  MatrixGf256 a = *this;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols_ && rank < rows_; ++col) {
    std::size_t pivot = rank;
    while (pivot < rows_ && a.at(pivot, col) == 0) ++pivot;
    if (pivot == rows_) continue;
    if (pivot != rank) {
      for (std::size_t c = 0; c < cols_; ++c)
        std::swap(a.row(rank)[c], a.row(pivot)[c]);
    }
    const std::uint8_t pinv = Gf256::inv(a.at(rank, col));
    Gf256::scale(a.row(rank), pinv);
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r != rank && a.at(r, col) != 0)
        Gf256::addmul(a.row(r), a.row(rank), a.at(r, col));
    }
    ++rank;
  }
  return rank;
}

Gf256Eliminator::Gf256Eliminator(std::size_t k, std::size_t block_size)
    : k_(k), block_size_(block_size), rows_(k) {}

bool Gf256Eliminator::add(ByteView coeffs, ByteView payload) {
  LRS_CHECK(coeffs.size() == k_);
  LRS_CHECK(payload.size() == block_size_);
  Bytes c(coeffs.begin(), coeffs.end());
  Bytes p(payload.begin(), payload.end());

  for (std::size_t col = 0; col < k_; ++col) {
    if (c[col] == 0) continue;
    auto& slot = rows_[col];
    if (!slot) {
      // Normalize so the pivot is 1 and claim the slot.
      const std::uint8_t inv = Gf256::inv(c[col]);
      Gf256::scale(MutByteView(c.data(), c.size()), inv);
      Gf256::scale(MutByteView(p.data(), p.size()), inv);
      slot = {std::move(c), std::move(p)};
      ++rank_;
      return true;
    }
    // Eliminate this column with the existing pivot row.
    const std::uint8_t f = c[col];
    Gf256::addmul(MutByteView(c.data(), c.size()), view(slot->first), f);
    Gf256::addmul(MutByteView(p.data(), p.size()), view(slot->second), f);
  }
  return false;  // reduced to zero: redundant
}

std::vector<Bytes> Gf256Eliminator::solve() const {
  LRS_CHECK_MSG(complete(), "solve() before reaching full rank");
  std::vector<Bytes> coeffs(k_), vals(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    coeffs[i] = rows_[i]->first;
    vals[i] = rows_[i]->second;
  }
  // Back-substitute bottom-up: rows below are already unit vectors when
  // their turn comes.
  for (std::size_t i = k_; i-- > 0;) {
    for (std::size_t j = i + 1; j < k_; ++j) {
      const std::uint8_t f = coeffs[i][j];
      if (f != 0) {
        coeffs[i][j] = 0;
        Gf256::addmul(MutByteView(vals[i].data(), vals[i].size()),
                      view(vals[j]), f);
      }
    }
  }
  return vals;
}

Gf2Eliminator::Gf2Eliminator(std::size_t k, std::size_t block_size)
    : k_(k), block_size_(block_size), rows_(k) {}

bool Gf2Eliminator::add(const BitVec& coeffs, ByteView payload) {
  LRS_CHECK(coeffs.size() == k_);
  LRS_CHECK(payload.size() == block_size_);
  BitVec c = coeffs;
  Bytes p(payload.begin(), payload.end());

  // Reduce against existing pivot rows until the equation either lands in an
  // empty pivot slot (innovative) or cancels to zero (redundant).
  while (true) {
    auto lead = c.first_set();
    if (!lead) return false;
    auto& slot = rows_[*lead];
    if (!slot) {
      slot = {std::move(c), std::move(p)};
      ++rank_;
      return true;
    }
    c ^= slot->first;
    for (std::size_t b = 0; b < block_size_; ++b) p[b] ^= slot->second[b];
  }
}

std::vector<Bytes> Gf2Eliminator::solve() const {
  LRS_CHECK_MSG(complete(), "solve() before reaching full rank");
  // Back-substitute: rows are in echelon form with pivot i at column i.
  std::vector<BitVec> coeffs;
  std::vector<Bytes> vals;
  coeffs.reserve(k_);
  vals.reserve(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    coeffs.push_back(rows_[i]->first);
    vals.push_back(rows_[i]->second);
  }
  for (std::size_t i = k_; i-- > 0;) {
    for (std::size_t j = i + 1; j < k_; ++j) {
      if (coeffs[i].get(j)) {
        coeffs[i].clear(j);
        for (std::size_t b = 0; b < block_size_; ++b)
          vals[i][b] ^= vals[j][b];
      }
    }
  }
  return vals;
}

}  // namespace lrs::erasure
