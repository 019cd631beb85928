#include "erasure/erased_solve.h"

#include <algorithm>

#include "erasure/gf256.h"
#include "util/check.h"

namespace lrs::erasure {

std::optional<std::vector<Bytes>> solve_erased_columns(
    const MatrixGf256& generator, std::span<const Bytes* const> data,
    std::span<const ParityShare> parity, std::size_t len) {
  const std::size_t k = generator.cols();
  LRS_CHECK(data.size() == k);
  std::vector<std::size_t> erased;
  for (std::size_t j = 0; j < k; ++j) {
    if (data[j] == nullptr) erased.push_back(j);
  }
  const std::size_t e = erased.size();

  // Pick rows and invert the minor in one Gauss-Jordan pass. Kept row i is
  // [restriction to the erased columns | combination of picked rows], with
  // 1 at its pivot and 0 at every other kept row's pivot. A candidate
  // reduced to a zero restriction lies in the span of the rows already
  // picked and is skipped. Once e rows are kept every column is a pivot, so
  // row i's combination of the picked rows' syndromes is erased column
  // erased[pivots[i]].
  MatrixGf256 kept(e, 2 * e);
  std::vector<std::size_t> pivots;
  std::vector<const ParityShare*> rows;
  Bytes cand(2 * e);
  for (const auto& p : parity) {
    if (rows.size() == e) break;
    std::fill(cand.begin(), cand.end(), 0);
    for (std::size_t b = 0; b < e; ++b)
      cand[b] = generator.at(p.row, erased[b]);
    cand[e + rows.size()] = 1;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint8_t f = cand[pivots[i]];
      if (f != 0) Gf256::addmul(MutByteView(cand), kept.row(i), f);
    }
    std::size_t pivot = 0;
    while (pivot < e && cand[pivot] == 0) ++pivot;
    if (pivot == e) continue;
    Gf256::scale(MutByteView(cand), Gf256::inv(cand[pivot]));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint8_t f = kept.at(i, pivot);
      if (f != 0) Gf256::addmul(kept.row(i), view(cand), f);
    }
    auto dst = kept.row(rows.size());
    std::copy(cand.begin(), cand.end(), dst.begin());
    pivots.push_back(pivot);
    rows.push_back(&p);
  }
  if (rows.size() < e) return std::nullopt;

  std::vector<Bytes> out(k);
  for (std::size_t j = 0; j < k; ++j) {
    if (data[j] != nullptr) out[j] = *data[j];
  }
  std::vector<Bytes> syndromes(e);
  for (std::size_t a = 0; a < e; ++a) {
    Bytes& s = syndromes[a];
    s = *rows[a]->data;
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint8_t c = generator.at(rows[a]->row, j);
      if (data[j] != nullptr && c != 0)
        Gf256::addmul(MutByteView(s), view(out[j]), c);
    }
  }
  for (std::size_t i = 0; i < e; ++i) {
    Bytes& d = out[erased[pivots[i]]];
    d.assign(len, 0);
    for (std::size_t a = 0; a < e; ++a) {
      const std::uint8_t f = kept.at(i, e + a);
      if (f != 0) Gf256::addmul(MutByteView(d), view(syndromes[a]), f);
    }
  }
  return out;
}

}  // namespace lrs::erasure
