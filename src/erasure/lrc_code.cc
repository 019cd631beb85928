// Pyramid-style Locally Repairable Code (LRC) over GF(256).
//
// Geometry: the k data blocks split into g contiguous groups of k/g blocks
// (g = lrc_group_count(k, n) = largest divisor of k with g <= (n-k)/2); each
// group gets one *local* parity and the remaining r = (n-k) - g parities are
// *global*. Encoded index layout:
//
//   [0, k)        data (systematic)
//   [k, k+g)      local parities, one per group
//   [k+g, n)      global parities
//
// Construction (pyramid / Cauchy): take a base Cauchy block B of r+1 rows by
// k columns, B[t][j] = 1/(x_t + y_j) with x_t = t and y_j = (r+1) + j — all
// points distinct, so every square submatrix of B is invertible. The local
// parity of group G is row 0 of B masked to G's columns; the global parities
// are rows 1..r of B in full. (When g == 0 the parities are just plain
// Cauchy RS rows and the code degenerates to RS.)
//
// Decode threshold k' = k + g - 1, i.e. ANY n - k' = r + 1 erasures are
// survivable. Proof: let t/l/q of the r+1 erasures hit data/local/global
// blocks (t + l + q = r + 1), so r - q = t + l - 1 globals survive.
//  * If l >= 1: at least t full Cauchy rows survive among the globals; their
//    restriction to the t erased data columns is a t x t Cauchy submatrix,
//    hence invertible — the erased data solves from survivors alone.
//  * If l == 0: every local parity survives. Each group touched by an
//    erasure contributes the equation "row 0 of B restricted to that group's
//    erased columns" (known right-hand side after subtracting survived
//    data); summing them yields row 0 of B restricted to the full erased
//    set. Together with the t - 1 surviving globals (rows of B), a vector
//    orthogonal to all of them is orthogonal to t distinct Cauchy rows
//    restricted to t columns — an invertible system — so only 0 is, and the
//    stacked equations have full rank t.
// Either way rank k is reached from any k' = k + g - 1 blocks. The bound is
// tight: erasing one group's local parity plus r+1 of its data blocks (when
// the group is large enough) leaves fewer than k independent rows.
//
// decode() first repairs single-erasure groups from the group alone (group
// size + 1 byte-rows touched instead of a k-wide solve) and only falls back
// to the erased-column solve (erased_solve.h) when local repair cannot
// complete the page. The process-wide registry counters
// "erasure.lrc.{decodes,local_repairs,local_only_decodes,full_solves}"
// (gated on stats::enabled()) record how often each path fires.
#include "erasure/code.h"
#include "erasure/erased_solve.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::erasure {

std::size_t lrc_group_count(std::size_t k, std::size_t n) {
  const std::size_t m = n - k;
  if (m < 2) return 0;
  for (std::size_t g = (m / 2 < k) ? m / 2 : k; g >= 1; --g) {
    if (k % g == 0) return g;
  }
  return 0;
}

namespace {

/// The decode-path counters plus the encode/decode scope timers,
/// resolved once and recorded through references (hot-path contract of
/// sim/stats/stats.h).
struct LrcRegistry {
  stats::Counter& decodes;
  stats::Counter& local_repairs;
  stats::Counter& local_only_decodes;
  stats::Counter& full_solves;
  stats::Timer& encode;
  stats::Timer& decode;

  static LrcRegistry& get() {
    auto& reg = stats::Registry::instance();
    static LrcRegistry r{
        reg.counter("erasure.lrc.decodes"),
        reg.counter("erasure.lrc.local_repairs"),
        reg.counter("erasure.lrc.local_only_decodes"),
        reg.counter("erasure.lrc.full_solves"),
        reg.timer("erasure.lrc.encode"),
        reg.timer("erasure.lrc.decode"),
    };
    return r;
  }
};

class LrcCode final : public ErasureCode {
 public:
  LrcCode(std::size_t k, std::size_t n)
      : k_(k),
        n_(n),
        g_(lrc_group_count(k, n)),
        group_size_(g_ > 0 ? k / g_ : 0),
        generator_(n, k) {
    LRS_CHECK_MSG(k >= 1 && k <= n, "LRC requires 1 <= k <= n");
    LRS_CHECK_MSG(n <= 255, "Cauchy LRC over GF(256) supports n <= 255");
    const std::size_t m = n_ - k_;
    // Base Cauchy rows: r+1 when grouped (row 0 feeds the locals), plain m
    // when degenerate. y offsets start past the largest x so all points are
    // distinct; base + k <= 255 + 1 holds because base <= m - 1 and n <= 255.
    const std::size_t base = g_ > 0 ? (m - g_) + 1 : m;
    auto cauchy = [&](std::size_t t, std::size_t j) {
      return Gf256::inv(Gf256::add(static_cast<std::uint8_t>(t),
                                   static_cast<std::uint8_t>(base + j)));
    };
    for (std::size_t i = 0; i < k_; ++i) generator_.set(i, i, 1);
    if (g_ > 0) {
      for (std::size_t grp = 0; grp < g_; ++grp) {
        for (std::size_t j = grp * group_size_; j < (grp + 1) * group_size_;
             ++j) {
          generator_.set(k_ + grp, j, cauchy(0, j));
        }
      }
      for (std::size_t r = 1; r < base; ++r) {
        for (std::size_t j = 0; j < k_; ++j)
          generator_.set(k_ + g_ + (r - 1), j, cauchy(r, j));
      }
    } else {
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < k_; ++j)
          generator_.set(k_ + r, j, cauchy(r, j));
      }
    }
  }

  std::size_t k() const override { return k_; }
  std::size_t n() const override { return n_; }
  std::size_t decode_threshold() const override {
    return g_ > 0 ? k_ + g_ - 1 : k_;
  }
  std::string name() const override { return "lrc"; }

  void encode(ByteView data, MutByteView out) const override {
    stats::TimerScope scope(LrcRegistry::get().encode);
    encode_systematic(generator_, data, out);
  }

  bool decode(std::span<const Share> shares,
              MutByteView out) const override {
    stats::TimerScope scope(LrcRegistry::get().decode);
    LRS_CHECK(out.size() % k_ == 0);
    const std::size_t len = out.size() / k_;
    // Deduplicate by index (first occurrence wins), keeping every distinct
    // share: unlike MDS decode, which k blocks we hold decides whether the
    // cheap local path applies.
    thread_local std::vector<const Share*> by_index;
    by_index.assign(n_, nullptr);
    std::size_t distinct = 0;
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      if (by_index[s.index] != nullptr) continue;
      by_index[s.index] = &s;
      ++distinct;
    }
    if (distinct < k_) return false;
    thread_local std::vector<const std::uint8_t*> have;
    have.assign(n_, nullptr);
    for (std::size_t i = 0; i < n_; ++i) {
      if (by_index[i] == nullptr) continue;
      LRS_CHECK(by_index[i]->data.size() == len);
      have[i] = by_index[i]->data.data();
    }

    // Pass 1: local repair. Any group missing exactly one data block whose
    // local parity survived repairs from group_size_ + 1 blocks, straight
    // into its slot of `out`: one dot with the inverse of the missing
    // column's coefficient folded into every term.
    thread_local std::vector<const std::uint8_t*> srcs;
    thread_local Bytes coeffs;
    std::uint64_t repairs = 0;
    for (std::size_t grp = 0; grp < g_; ++grp) {
      if (have[k_ + grp] == nullptr) continue;
      std::size_t missing = n_;  // sentinel: none
      bool repairable = true;
      for (std::size_t j = grp * group_size_;
           repairable && j < (grp + 1) * group_size_; ++j) {
        if (have[j] != nullptr) continue;
        if (missing != n_) repairable = false;  // two erasures in the group
        missing = j;
      }
      if (!repairable || missing == n_) continue;
      const std::uint8_t inv = Gf256::inv(generator_.at(k_ + grp, missing));
      srcs.assign(1, have[k_ + grp]);
      coeffs.assign(1, inv);
      for (std::size_t j = grp * group_size_; j < (grp + 1) * group_size_;
           ++j) {
        if (j == missing) continue;
        srcs.push_back(have[j]);
        coeffs.push_back(Gf256::mul(inv, generator_.at(k_ + grp, j)));
      }
      const MutByteView slot = out.subspan(missing * len, len);
      Gf256::dot(slot, srcs, coeffs);
      have[missing] = slot.data();
      ++repairs;
    }
    LrcRegistry::get().local_repairs.add(repairs);

    // Pass 2: erased-column solve (which also places the present data
    // blocks, skipping any already in their own slot of `out`). With
    // nothing left erased it only copies; a failed solve writes nothing.
    // Parity shares are offered in index order and the first e innovative
    // ones kept: the rows an elimination fed data rows first, then parity
    // rows in index order, would settle on.
    bool all_data = true;
    for (std::size_t j = 0; j < k_; ++j) all_data &= have[j] != nullptr;
    thread_local std::vector<ParityShare> parity;
    parity.clear();
    for (std::size_t i = k_; i < n_ && !all_data; ++i) {
      if (have[i] != nullptr) parity.push_back({i, have[i]});
    }
    if (!solve_erased_columns(
            generator_, std::span<const std::uint8_t* const>(have.data(), k_),
            parity, out)) {
      return false;
    }
    LrcRegistry::get().decodes.add();
    if (all_data) {
      LrcRegistry::get().local_only_decodes.add();
    } else {
      LrcRegistry::get().full_solves.add();
    }
    return true;
  }

 private:
  std::size_t k_, n_, g_, group_size_;
  MatrixGf256 generator_;
};

}  // namespace

std::unique_ptr<ErasureCode> make_lrc_code(std::size_t k, std::size_t n) {
  return std::make_unique<LrcCode>(k, n);
}

}  // namespace lrs::erasure
