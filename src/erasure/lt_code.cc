// Fixed-rate LT code (Luby, FOCS'02) — the paper's §II-C lists LT codes as
// a typical erasure code, and they are the canonical instance of the
// "k' > k" decode overhead LR-Seluge's analysis assumes.
//
// Encoded packet i draws a degree d_i from the robust soliton distribution
// and XORs d_i pseudorandomly chosen blocks; both draws derive from the
// preloaded seed and the packet index, so every node regenerates identical
// packets (required for hash chaining). Decoding is the classic peeling
// process: repeatedly release degree-one packets, substitute the recovered
// block everywhere, fail soft if the ripple dries up before all k blocks
// are known — the caller simply keeps collecting packets.
#include <algorithm>
#include <cmath>
#include <vector>

#include "erasure/code.h"
#include "sim/stats/stats.h"
#include "util/check.h"
#include "util/rng.h"

namespace lrs::erasure {

namespace {

std::uint64_t packet_seed(std::uint64_t base, std::size_t index) {
  std::uint64_t z = base + 0x632be59bd9b4e019ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Robust soliton distribution (c = 0.1, delta = 0.5), precomputed CDF.
std::vector<double> robust_soliton_cdf(std::size_t k) {
  const double c = 0.1;
  const double delta = 0.5;
  const double r = c * std::log(k / delta) * std::sqrt(static_cast<double>(k));
  const auto spike = std::max<std::size_t>(
      1, std::min(k, static_cast<std::size_t>(k / std::max(1.0, r))));

  std::vector<double> p(k + 1, 0.0);
  // Ideal soliton rho.
  p[1] = 1.0 / static_cast<double>(k);
  for (std::size_t d = 2; d <= k; ++d)
    p[d] = 1.0 / (static_cast<double>(d) * static_cast<double>(d - 1));
  // Robust correction tau.
  for (std::size_t d = 1; d < spike; ++d)
    p[d] += r / (static_cast<double>(d) * static_cast<double>(k));
  p[spike] += r * std::log(r / delta) / static_cast<double>(k);

  double total = 0.0;
  for (std::size_t d = 1; d <= k; ++d) total += p[d];
  std::vector<double> cdf(k + 1, 0.0);
  double acc = 0.0;
  for (std::size_t d = 1; d <= k; ++d) {
    acc += p[d] / total;
    cdf[d] = acc;
  }
  cdf[k] = 1.0;
  return cdf;
}

class LtCode final : public ErasureCode {
 public:
  LtCode(std::size_t k, std::size_t n, std::size_t delta, std::uint64_t seed)
      : k_(k), n_(n), delta_(delta), seed_(seed), cdf_(robust_soliton_cdf(k)) {
    LRS_CHECK_MSG(k >= 1 && k <= n, "LT requires 1 <= k <= n");
    // A fixed-rate LT instance must be decodable from the FULL packet set,
    // or a page could never complete. Re-salt deterministically until the
    // full set peels — every node derives the same instance.
    for (std::uint64_t salt = 0;; ++salt) {
      neighbors_.clear();
      neighbors_.reserve(n_);
      for (std::size_t i = 0; i < n_; ++i)
        neighbors_.push_back(draw_neighbors(i, salt));
      if (full_set_peels()) break;
      LRS_CHECK_MSG(salt < 1000, "LT instance unreachable (n too small?)");
    }
  }

  std::size_t k() const override { return k_; }
  std::size_t n() const override { return n_; }
  std::size_t decode_threshold() const override {
    return std::min(n_, k_ + delta_);
  }
  std::string name() const override { return "lt"; }

  void encode(ByteView data, MutByteView out) const override {
    static stats::Timer& timer =
        stats::Registry::instance().timer("erasure.lt.encode");
    stats::TimerScope scope(timer);
    LRS_CHECK(data.size() % k_ == 0);
    const std::size_t len = data.size() / k_;
    LRS_CHECK(out.size() == n_ * len);
    for (std::size_t i = 0; i < n_; ++i) {
      const MutByteView e = out.subspan(i * len, len);
      std::fill(e.begin(), e.end(), 0);
      for (auto j : neighbors_[i]) {
        for (std::size_t b = 0; b < len; ++b) e[b] ^= data[j * len + b];
      }
    }
  }

  bool decode(std::span<const Share> shares,
              MutByteView out) const override {
    static stats::Timer& timer =
        stats::Registry::instance().timer("erasure.lt.decode");
    stats::TimerScope scope(timer);
    if (shares.empty()) return false;
    LRS_CHECK(out.size() % k_ == 0);
    const std::size_t len = out.size() / k_;

    // Working copies: each received packet's unresolved neighbor set.
    struct Pending {
      std::vector<std::size_t> nbr;
      Bytes data;
    };
    std::vector<Pending> pend;
    std::vector<bool> seen(n_, false);
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      LRS_CHECK(s.data.size() == len);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      pend.push_back(
          {neighbors_[s.index], Bytes(s.data.begin(), s.data.end())});
    }

    // Solved block j is written straight into its slot of `out`.
    std::vector<bool> solved(k_, false);
    std::size_t solved_count = 0;
    const auto block = [&](std::size_t j) { return out.subspan(j * len, len); };

    // Peeling: substitute every already-solved block, then release
    // degree-one packets until the ripple dries up.
    bool progress = true;
    while (progress && solved_count < k_) {
      progress = false;
      for (auto& p : pend) {
        if (p.nbr.empty()) continue;
        // Substitute solved neighbors.
        auto it = p.nbr.begin();
        while (it != p.nbr.end()) {
          if (solved[*it]) {
            const MutByteView b = block(*it);
            for (std::size_t i = 0; i < len; ++i) p.data[i] ^= b[i];
            it = p.nbr.erase(it);
          } else {
            ++it;
          }
        }
        if (p.nbr.size() == 1) {
          const std::size_t j = p.nbr.front();
          p.nbr.clear();
          if (!solved[j]) {
            std::copy(p.data.begin(), p.data.end(), block(j).begin());
            solved[j] = true;
            ++solved_count;
          }
          progress = true;
        }
      }
    }
    return solved_count == k_;
  }

 private:
  /// Structural dry run of the peeling decoder over all n packets.
  bool full_set_peels() const {
    std::vector<std::vector<std::size_t>> nbr = neighbors_;
    std::vector<bool> solved(k_, false);
    std::size_t count = 0;
    bool progress = true;
    while (progress && count < k_) {
      progress = false;
      for (auto& ns : nbr) {
        ns.erase(std::remove_if(ns.begin(), ns.end(),
                                [&](std::size_t j) { return solved[j]; }),
                 ns.end());
        if (ns.size() == 1) {
          if (!solved[ns.front()]) {
            solved[ns.front()] = true;
            ++count;
          }
          ns.clear();
          progress = true;
        }
      }
    }
    return count == k_;
  }

  std::vector<std::size_t> draw_neighbors(std::size_t index,
                                          std::uint64_t salt) const {
    Rng rng(packet_seed(seed_ ^ (salt * 0x9e3779b97f4a7c15ULL), index));
    // Sample the degree from the robust soliton CDF.
    const double u = rng.uniform01();
    std::size_t degree = 1;
    while (degree < k_ && cdf_[degree] < u) ++degree;
    // Distinct neighbor blocks via partial Fisher-Yates.
    std::vector<std::size_t> idx(k_);
    for (std::size_t j = 0; j < k_; ++j) idx[j] = j;
    for (std::size_t j = 0; j < degree; ++j)
      std::swap(idx[j], idx[j + rng.uniform(k_ - j)]);
    idx.resize(degree);
    std::sort(idx.begin(), idx.end());
    return idx;
  }

  std::size_t k_, n_, delta_;
  std::uint64_t seed_;
  std::vector<double> cdf_;
  std::vector<std::vector<std::size_t>> neighbors_;  // per encoded index
};

}  // namespace

std::unique_ptr<ErasureCode> make_lt_code(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed) {
  return std::make_unique<LtCode>(k, n, delta, seed);
}

}  // namespace lrs::erasure
