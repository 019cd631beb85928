#include "erasure/matrix.h"

#include <algorithm>
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

void Gf256Eliminator::solve(MutByteView out) const {
  LRS_CHECK_MSG(complete(), "solve() before reaching full rank");
  LRS_CHECK(out.size() == k_ * block_size_);
  const auto block = [&](std::size_t i) {
    return out.subspan(i * block_size_, block_size_);
  };
  // Back-substitute bottom-up: the blocks below are already solved when
  // their turn comes.
  for (std::size_t i = k_; i-- > 0;) {
    const auto& [coeffs, payload] = *rows_[i];
    std::copy(payload.begin(), payload.end(), block(i).begin());
    for (std::size_t j = i + 1; j < k_; ++j) {
      if (coeffs[j] != 0) Gf256::addmul(block(i), block(j), coeffs[j]);
    }
  }
}

}  // namespace lrs::erasure
