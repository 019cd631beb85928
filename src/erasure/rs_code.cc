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

  std::vector<Bytes> encode(const std::vector<Bytes>& blocks) const override {
    stats::TimerScope scope(rs_encode_timer());
    LRS_CHECK(blocks.size() == k_);
    const std::size_t len = blocks.front().size();
    for (const auto& b : blocks) LRS_CHECK(b.size() == len);

    std::vector<Bytes> out;
    out.reserve(n_);
    // Systematic part: copies.
    for (std::size_t i = 0; i < k_; ++i) out.push_back(blocks[i]);
    // Parity part.
    for (std::size_t r = k_; r < n_; ++r) {
      Bytes e(len, 0);
      for (std::size_t j = 0; j < k_; ++j) {
        Gf256::addmul(MutByteView(e.data(), e.size()), view(blocks[j]),
                      generator_.at(r, j));
      }
      out.push_back(std::move(e));
    }
    return out;
  }

  std::optional<std::vector<Bytes>> decode(
      const std::vector<Share>& shares) const override {
    stats::TimerScope scope(rs_decode_timer());
    // Deduplicate by index, keep the first k distinct shares. The picked
    // systematic shares fill their columns; the picked parity shares are
    // exactly as many as the erased columns, and every such minor of a
    // Cauchy generator is invertible.
    std::vector<const Bytes*> data(k_, nullptr);
    std::vector<ParityShare> parity;
    std::vector<bool> seen(n_, false);
    std::size_t picked = 0;
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      if (s.index < k_) {
        data[s.index] = &s.data;
      } else {
        parity.push_back({s.index, &s.data});
      }
      if (++picked == k_) break;
    }
    if (picked < k_) return std::nullopt;
    const std::size_t len = shares.front().data.size();
    for (const Bytes* d : data) LRS_CHECK(d == nullptr || d->size() == len);
    for (const auto& p : parity) LRS_CHECK(p.data->size() == len);

    auto out = solve_erased_columns(generator_, data, parity, len);
    LRS_CHECK_MSG(out.has_value(), "MDS property violated (bug)");
    return out;
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
