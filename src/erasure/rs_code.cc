// Systematic MDS Reed-Solomon code from a Cauchy construction.
//
// Generator G (n x k) = [ I_k ; C ] where C[r][j] = 1/(x_r + y_j) with
// x_r = r for parity row r in [0, n-k) and y_j = (n-k) + j for column j —
// all 2n-k points distinct, so every square submatrix of C is Cauchy and
// hence invertible, which makes every k x k submatrix of G invertible:
// expanding any selected identity rows reduces the determinant to a Cauchy
// minor. This is the classic Cauchy-RS construction (as used in Jerasure).
#include "erasure/code.h"
#include "erasure/erased_solve.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::erasure {

namespace {

stats::Timer& rs_encode_timer() {
  static stats::Timer& t =
      stats::Registry::instance().timer("erasure.rs.encode");
  return t;
}
stats::Timer& rs_decode_timer() {
  static stats::Timer& t =
      stats::Registry::instance().timer("erasure.rs.decode");
  return t;
}

class ReedSolomonCode final : public ErasureCode {
 public:
  ReedSolomonCode(std::size_t k, std::size_t n)
      : k_(k), n_(n), generator_(n, k) {
    LRS_CHECK_MSG(k >= 1 && k <= n, "RS requires 1 <= k <= n");
    LRS_CHECK_MSG(n <= 255, "Cauchy RS over GF(256) supports n <= 255");
    for (std::size_t i = 0; i < k_; ++i) generator_.set(i, i, 1);
    for (std::size_t r = 0; r + k_ < n_; ++r) {
      const std::uint8_t x = static_cast<std::uint8_t>(r);
      for (std::size_t j = 0; j < k_; ++j) {
        const std::uint8_t y = static_cast<std::uint8_t>(n_ - k_ + j);
        generator_.set(k_ + r, j, Gf256::inv(Gf256::add(x, y)));
      }
    }
  }

  std::size_t k() const override { return k_; }
  std::size_t n() const override { return n_; }
  std::size_t decode_threshold() const override { return k_; }
  std::string name() const override { return "rs"; }

  void encode(ByteView data, MutByteView out) const override {
    stats::TimerScope scope(rs_encode_timer());
    encode_systematic(generator_, data, out);
  }

  bool decode(std::span<const Share> shares,
              MutByteView out) const override {
    stats::TimerScope scope(rs_decode_timer());
    LRS_CHECK(out.size() % k_ == 0);
    const std::size_t len = out.size() / k_;
    // Deduplicate by index, keep the first k distinct shares. The picked
    // systematic shares fill their columns; the picked parity shares are
    // exactly as many as the erased columns, and every such minor of a
    // Cauchy generator is invertible. A data share already in its own slot
    // of `out` is used in place: only the erased columns are written.
    thread_local std::vector<const std::uint8_t*> data;
    thread_local std::vector<ParityShare> parity;
    thread_local std::vector<bool> seen;
    data.assign(k_, nullptr);
    parity.clear();
    seen.assign(n_, false);
    std::size_t picked = 0;
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      LRS_CHECK(s.data.size() == len);
      if (s.index < k_) {
        data[s.index] = s.data.data();
      } else {
        parity.push_back({s.index, s.data.data()});
      }
      if (++picked == k_) break;
    }
    if (picked < k_) return false;
    const bool solved = solve_erased_columns(generator_, data, parity, out);
    LRS_CHECK_MSG(solved, "MDS property violated (bug)");
    return true;
  }

 private:
  std::size_t k_, n_;
  MatrixGf256 generator_;
};

}  // namespace

std::unique_ptr<ErasureCode> make_rs_code(std::size_t k, std::size_t n) {
  return std::make_unique<ReedSolomonCode>(k, n);
}

}  // namespace lrs::erasure
