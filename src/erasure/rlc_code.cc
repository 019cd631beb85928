// Systematic random linear codes with seed-derived parity rows.
//
// Encoded block i < k is original block i; encoded block k+r is a
// pseudorandom linear combination of the originals whose coefficients are
// derived from (seed, r) — every node holding the same preloaded seed
// regenerates identical packets, which is what lets LR-Seluge hash-chain
// them. GF(2) rows are dense random bit vectors (an XOR-only code a mote
// could run); GF(256) rows are random bytes (near-MDS). Decoding is
// Gaussian elimination over the received coefficient rows; it succeeds when
// they reach rank k, which is why the nominal threshold k' exceeds k.
#include <algorithm>

#include "erasure/code.h"
#include "erasure/erased_solve.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/check.h"
#include "util/rng.h"

namespace lrs::erasure {

namespace {

stats::Timer& rlc_timer(bool gf256, bool decode) {
  static stats::Timer* timers[4] = {
      &stats::Registry::instance().timer("erasure.rlc2.encode"),
      &stats::Registry::instance().timer("erasure.rlc2.decode"),
      &stats::Registry::instance().timer("erasure.rlc256.encode"),
      &stats::Registry::instance().timer("erasure.rlc256.decode"),
  };
  return *timers[(gf256 ? 2 : 0) + (decode ? 1 : 0)];
}

std::uint64_t row_seed(std::uint64_t seed, std::size_t row) {
  // splitmix-style mix so adjacent rows decorrelate.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (row + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class RlcGf2Code final : public ErasureCode {
 public:
  RlcGf2Code(std::size_t k, std::size_t n, std::size_t delta,
             std::uint64_t seed)
      : k_(k), n_(n), delta_(delta) {
    LRS_CHECK_MSG(k >= 1 && k <= n, "RLC requires 1 <= k <= n");
    LRS_CHECK(k + delta <= n || delta == 0 || k == n);
    parity_rows_.reserve(n - k);
    for (std::size_t r = 0; r + k_ < n_; ++r) {
      Rng rng(row_seed(seed, r));
      BitVec row(k_);
      do {
        for (std::size_t j = 0; j < k_; ++j) row.set(j, rng.bernoulli(0.5));
      } while (row.none());
      parity_rows_.push_back(std::move(row));
    }
  }

  std::size_t k() const override { return k_; }
  std::size_t n() const override { return n_; }
  std::size_t decode_threshold() const override {
    return std::min(n_, k_ + delta_);
  }
  std::string name() const override { return "rlc2"; }

  void encode(ByteView data, MutByteView out) const override {
    stats::TimerScope scope(rlc_timer(false, false));
    LRS_CHECK(data.size() % k_ == 0);
    const std::size_t len = data.size() / k_;
    LRS_CHECK(out.size() == n_ * len);
    std::copy(data.begin(), data.end(), out.begin());
    for (std::size_t r = 0; r < parity_rows_.size(); ++r) {
      const MutByteView e = out.subspan((k_ + r) * len, len);
      std::fill(e.begin(), e.end(), 0);
      for (std::size_t j = 0; j < k_; ++j) {
        if (!parity_rows_[r].get(j)) continue;
        for (std::size_t b = 0; b < len; ++b) e[b] ^= data[j * len + b];
      }
    }
  }

  bool decode(std::span<const Share> shares,
              MutByteView out) const override {
    stats::TimerScope scope(rlc_timer(false, true));
    if (shares.empty()) return false;
    LRS_CHECK(out.size() % k_ == 0);
    const std::size_t len = out.size() / k_;
    // The eliminator copies each share, and `out` is written only once
    // the rank is complete: a data share sitting in its own slot of `out`
    // is read before it is rewritten, and a failed decode leaves it alone.
    Gf2Eliminator elim(k_, len);
    std::vector<bool> seen(n_, false);
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      LRS_CHECK(s.data.size() == len);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      elim.add(coeff_row(s.index), s.data);
      if (elim.complete()) {
        const std::vector<Bytes> blocks = elim.solve();
        for (std::size_t j = 0; j < k_; ++j)
          std::copy(blocks[j].begin(), blocks[j].end(),
                    out.begin() + static_cast<std::ptrdiff_t>(j * len));
        return true;
      }
    }
    return false;
  }

 private:
  BitVec coeff_row(std::size_t index) const {
    if (index < k_) {
      BitVec unit(k_);
      unit.set(index);
      return unit;
    }
    return parity_rows_[index - k_];
  }

  std::size_t k_, n_, delta_;
  std::vector<BitVec> parity_rows_;
};

class RlcGf256Code final : public ErasureCode {
 public:
  RlcGf256Code(std::size_t k, std::size_t n, std::size_t delta,
               std::uint64_t seed)
      : k_(k), n_(n), delta_(delta), generator_(n, k) {
    LRS_CHECK_MSG(k >= 1 && k <= n, "RLC requires 1 <= k <= n");
    for (std::size_t i = 0; i < k_; ++i) generator_.set(i, i, 1);
    for (std::size_t r = 0; r + k_ < n_; ++r) {
      Rng rng(row_seed(seed, r));
      bool nonzero = false;
      do {
        for (std::size_t j = 0; j < k_; ++j) {
          const auto c = static_cast<std::uint8_t>(rng.uniform(256));
          generator_.set(k_ + r, j, c);
          nonzero = nonzero || c != 0;
        }
      } while (!nonzero);
    }
  }

  std::size_t k() const override { return k_; }
  std::size_t n() const override { return n_; }
  std::size_t decode_threshold() const override {
    return std::min(n_, k_ + delta_);
  }
  std::string name() const override { return "rlc256"; }

  void encode(ByteView data, MutByteView out) const override {
    stats::TimerScope scope(rlc_timer(true, false));
    encode_systematic(generator_, data, out);
  }

  bool decode(std::span<const Share> shares,
              MutByteView out) const override {
    stats::TimerScope scope(rlc_timer(true, true));
    LRS_CHECK(out.size() % k_ == 0);
    const std::size_t len = out.size() / k_;
    // Gather distinct shares.
    std::vector<const Share*> picked;
    std::vector<bool> seen(n_, false);
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      picked.push_back(&s);
    }
    if (picked.size() < k_) return false;

    // Augmented Gaussian elimination over all received rows; payload row r
    // is bytes [r * len, (r+1) * len) of one buffer. Every share is copied
    // in before `out` is written (only on success), so a data share may sit
    // in its own slot of `out`.
    const std::size_t m = picked.size();
    MatrixGf256 a(m, k_);
    Bytes payload(m * len);
    const auto row = [&](std::size_t r) {
      return MutByteView(payload).subspan(r * len, len);
    };
    for (std::size_t r = 0; r < m; ++r) {
      LRS_CHECK(picked[r]->data.size() == len);
      for (std::size_t c = 0; c < k_; ++c)
        a.set(r, c, generator_.at(picked[r]->index, c));
      std::copy(picked[r]->data.begin(), picked[r]->data.end(),
                row(r).begin());
    }

    std::size_t rank = 0;
    std::vector<std::size_t> pivot_row(k_);
    for (std::size_t col = 0; col < k_; ++col) {
      std::size_t pr = rank;
      while (pr < m && a.at(pr, col) == 0) ++pr;
      if (pr == m) return false;  // rank deficient in this column
      if (pr != rank) {
        std::swap_ranges(a.row(rank).begin(), a.row(rank).end(),
                         a.row(pr).begin());
        std::swap_ranges(row(rank).begin(), row(rank).end(),
                         row(pr).begin());
      }
      const std::uint8_t pinv = Gf256::inv(a.at(rank, col));
      Gf256::scale(a.row(rank), pinv);
      Gf256::scale(row(rank), pinv);
      for (std::size_t r = 0; r < m; ++r) {
        if (r == rank) continue;
        const std::uint8_t f = a.at(r, col);
        if (f != 0) {
          Gf256::addmul(a.row(r), a.row(rank), f);
          Gf256::addmul(row(r), row(rank), f);
        }
      }
      pivot_row[col] = rank;
      ++rank;
    }

    for (std::size_t col = 0; col < k_; ++col) {
      const MutByteView src = row(pivot_row[col]);
      std::copy(src.begin(), src.end(),
                out.begin() + static_cast<std::ptrdiff_t>(col * len));
    }
    return true;
  }

 private:
  std::size_t k_, n_, delta_;
  MatrixGf256 generator_;
};

}  // namespace

std::unique_ptr<ErasureCode> make_rlc_gf2(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed) {
  return std::make_unique<RlcGf2Code>(k, n, delta, seed);
}

std::unique_ptr<ErasureCode> make_rlc_gf256(std::size_t k, std::size_t n,
                                            std::size_t delta,
                                            std::uint64_t seed) {
  return std::make_unique<RlcGf256Code>(k, n, delta, seed);
}

}  // namespace lrs::erasure
