#include "erasure/erased_solve.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "erasure/gf256.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::erasure {

namespace {

/// Per-thread working set; vectors keep their capacity between calls, so a
/// warm encode or solve does not touch the heap.
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

void encode_systematic(const MatrixGf256& generator, ByteView data,
                       MutByteView out) {
  const std::size_t k = generator.cols(), n = generator.rows();
  LRS_CHECK(data.size() % k == 0);
  const std::size_t len = data.size() / k;
  LRS_CHECK(out.size() == n * len);
  if (len == 0) return;
  std::memcpy(out.data(), data.data(), k * len);
  Scratch& sc = scratch();
  sc.srcs.resize(k);
  for (std::size_t j = 0; j < k; ++j) sc.srcs[j] = data.data() + j * len;
  // Zero coefficients (LRC's local rows) are skipped inside the kernel.
  for (std::size_t r = k; r < n; ++r)
    Gf256::dot(out.subspan(r * len, len), sc.srcs, generator.row(r));
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

namespace {

class SystematicCode final : public ErasureCode {
 public:
  SystematicCode(std::string name, MatrixGf256 generator,
                 std::size_t threshold, bool mds)
      : name_(std::move(name)),
        generator_(std::move(generator)),
        threshold_(threshold),
        mds_(mds),
        encode_timer_(
            stats::Registry::instance().timer("erasure." + name_ + ".encode")),
        decode_timer_(stats::Registry::instance().timer("erasure." + name_ +
                                                        ".decode")) {}

  std::size_t k() const override { return generator_.cols(); }
  std::size_t n() const override { return generator_.rows(); }
  std::size_t decode_threshold() const override { return threshold_; }
  std::string name() const override { return name_; }

  void encode(ByteView data, MutByteView out) const override {
    stats::TimerScope scope(encode_timer_);
    encode_systematic(generator_, data, out);
  }

  bool decode(std::span<const Share> shares,
              MutByteView out) const override {
    stats::TimerScope scope(decode_timer_);
    const std::size_t k = this->k(), n = this->n();
    LRS_CHECK(out.size() % k == 0);
    const std::size_t len = out.size() / k;
    // Deduplicate by index. The distinct systematic shares fill their
    // columns; the parity shares are the solve's candidates in arrival
    // order. An MDS generator keeps only the first k distinct shares: the
    // parity shares among them are exactly as many as the erased columns,
    // and every such minor is invertible. A data share already in its own
    // slot of `out` is used in place: only the erased columns are written.
    thread_local std::vector<const std::uint8_t*> data;
    thread_local std::vector<ParityShare> parity;
    thread_local std::vector<bool> seen;
    data.assign(k, nullptr);
    parity.clear();
    seen.assign(n, false);
    std::size_t picked = 0;
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      LRS_CHECK(s.data.size() == len);
      if (s.index < k) {
        data[s.index] = s.data.data();
      } else {
        parity.push_back({s.index, s.data.data()});
      }
      if (++picked == k && mds_) break;
    }
    if (picked < k) return false;
    const bool solved = solve_erased_columns(generator_, data, parity, out);
    LRS_CHECK_MSG(solved || !mds_, "MDS property violated (bug)");
    return solved;
  }

 private:
  std::string name_;
  MatrixGf256 generator_;
  std::size_t threshold_;
  bool mds_;
  stats::Timer& encode_timer_;
  stats::Timer& decode_timer_;
};

}  // namespace

std::unique_ptr<ErasureCode> make_systematic_code(std::string name,
                                                  MatrixGf256 generator,
                                                  std::size_t threshold,
                                                  bool mds) {
  return std::make_unique<SystematicCode>(std::move(name),
                                          std::move(generator), threshold,
                                          mds);
}

}  // namespace lrs::erasure
