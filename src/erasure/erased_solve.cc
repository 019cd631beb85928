#include "erasure/erased_solve.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "erasure/gf256.h"
#include "util/check.h"

namespace lrs::erasure {

namespace {

/// Per-thread working set; vectors keep their capacity between calls, so a
/// warm solve does not touch the heap.
struct Scratch {
  std::vector<const std::uint8_t*> srcs;  // dot sources
  Bytes coeffs;                           // dot coefficients
  std::vector<std::size_t> erased, pivots, present;
  std::vector<const ParityShare*> rows;
  Bytes kept;       // e x 2e, row-major
  Bytes cand;       // 2e
  Bytes syndromes;  // e blocks of len bytes
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

RowSupports::RowSupports(const MatrixGf256& generator)
    : columns_(generator.cols()) {
  begin_.reserve(generator.rows() + 1);
  begin_.push_back(0);
  copies_.reserve(generator.rows());
  for (std::size_t r = 0; r < generator.rows(); ++r) {
    for (std::size_t j = 0; j < columns_; ++j) {
      if (generator.at(r, j) != 0)
        cols_.push_back(static_cast<std::uint32_t>(j));
    }
    begin_.push_back(static_cast<std::uint32_t>(cols_.size()));
    const auto cols = row(r);
    copies_.push_back(cols.size() == 1 && generator.at(r, cols[0]) == 1
                          ? cols[0]
                          : kNoCopy);
  }
}

std::size_t peel(const RowSupports& supports, bool skip_spanning,
                 std::vector<std::size_t>& rows,
                 std::vector<std::uint8_t>& known,
                 std::vector<PeelStep>& steps) {
  const std::size_t k = supports.columns();
  auto count = static_cast<std::size_t>(
      std::count(known.begin(), known.end(), std::uint8_t{1}));
  steps.clear();
  for (bool progress = true; progress && count < k;) {
    progress = false;
    std::size_t kept = 0;
    for (const std::size_t r : rows) {
      const auto cols = supports.row(r);
      if (skip_spanning && cols.size() == k) {
        rows[kept++] = r;
        continue;
      }
      std::size_t unknown = 0, col = 0;
      for (const std::uint32_t j : cols) {
        if (known[j] != 0) continue;
        col = j;
        if (++unknown > 1) break;
      }
      if (unknown == 1) {
        known[col] = 1;
        ++count;
        steps.push_back({r, col});
        progress = true;
      } else if (unknown > 1) {
        rows[kept++] = r;
      }
    }
    rows.resize(kept);
  }
  return count;
}

bool solve_erased_columns(const MatrixGf256& generator,
                          std::span<const std::uint8_t* const> data,
                          std::span<const ParityShare> parity,
                          MutByteView out) {
  const std::size_t k = generator.cols();
  LRS_CHECK(data.size() == k);
  LRS_CHECK(out.size() % k == 0);
  const std::size_t len = out.size() / k;
  Scratch& sc = scratch();
  sc.erased.clear();
  for (std::size_t j = 0; j < k; ++j) {
    if (data[j] == nullptr) sc.erased.push_back(j);
  }
  const std::size_t e = sc.erased.size();

  // Pick rows and invert the minor in one Gauss-Jordan pass. Kept row i is
  // [restriction to the erased columns | combination of picked rows], with
  // 1 at its pivot and 0 at every other kept row's pivot. A candidate
  // reduced to a zero restriction lies in the span of the rows already
  // picked and is skipped. Once e rows are kept every column is a pivot, so
  // row i's combination of the picked rows' syndromes is erased column
  // erased[pivots[i]].
  sc.kept.resize(e * 2 * e);
  sc.cand.resize(2 * e);
  sc.pivots.clear();
  sc.rows.clear();
  const auto kept = [&](std::size_t i) {
    return MutByteView(sc.kept).subspan(i * 2 * e, 2 * e);
  };
  const MutByteView cand(sc.cand);
  for (const auto& p : parity) {
    if (sc.rows.size() == e) break;
    std::fill(cand.begin(), cand.end(), 0);
    for (std::size_t b = 0; b < e; ++b)
      cand[b] = generator.at(p.row, sc.erased[b]);
    cand[e + sc.rows.size()] = 1;
    for (std::size_t i = 0; i < sc.rows.size(); ++i) {
      const std::uint8_t f = cand[sc.pivots[i]];
      if (f != 0) Gf256::addmul(cand, kept(i), f);
    }
    std::size_t pivot = 0;
    while (pivot < e && cand[pivot] == 0) ++pivot;
    if (pivot == e) continue;
    Gf256::scale(cand, Gf256::inv(cand[pivot]));
    for (std::size_t i = 0; i < sc.rows.size(); ++i) {
      const std::uint8_t f = kept(i)[pivot];
      if (f != 0) Gf256::addmul(kept(i), cand, f);
    }
    std::copy(cand.begin(), cand.end(), kept(sc.rows.size()).begin());
    sc.pivots.push_back(pivot);
    sc.rows.push_back(&p);
  }
  if (sc.rows.size() < e) return false;
  if (len == 0) return true;

  for (std::size_t j = 0; j < k; ++j) {
    std::uint8_t* slot = out.data() + j * len;
    if (data[j] != nullptr && data[j] != slot)
      std::memcpy(slot, data[j], len);
  }
  // Syndrome a: the picked parity block plus every present column's term.
  // The present columns are the same for every syndrome, so the source
  // list is built once with slot 0 left for the parity block; only the
  // coefficients change per row (the kernel skips zero coefficients).
  sc.srcs.assign(1, nullptr);
  sc.present.clear();
  for (std::size_t j = 0; j < k; ++j) {
    if (data[j] == nullptr) continue;
    sc.srcs.push_back(data[j]);
    sc.present.push_back(j);
  }
  sc.coeffs.resize(sc.srcs.size());
  sc.coeffs[0] = 1;
  sc.syndromes.resize(e * len);
  for (std::size_t a = 0; a < e; ++a) {
    const ByteView g = generator.row(sc.rows[a]->row);
    sc.srcs[0] = sc.rows[a]->data;
    for (std::size_t i = 0; i < sc.present.size(); ++i)
      sc.coeffs[i + 1] = g[sc.present[i]];
    Gf256::dot(MutByteView(sc.syndromes).subspan(a * len, len), sc.srcs,
               sc.coeffs);
  }
  for (std::size_t i = 0; i < e; ++i) {
    sc.srcs.clear();
    sc.coeffs.clear();
    for (std::size_t a = 0; a < e; ++a) {
      const std::uint8_t f = kept(i)[e + a];
      if (f != 0) {
        sc.srcs.push_back(sc.syndromes.data() + a * len);
        sc.coeffs.push_back(f);
      }
    }
    Gf256::dot(out.subspan(sc.erased[sc.pivots[i]] * len, len), sc.srcs,
               sc.coeffs);
  }
  return true;
}

}  // namespace lrs::erasure
