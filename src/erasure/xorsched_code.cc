// Cauchy Reed-Solomon compiled to a word-wise XOR schedule.
//
// Same generator as rs_code.cc — G = [ I_k ; C ], C[r][j] = 1/(x_r + y_j),
// x_r = r, y_j = (n-k) + j — so the codewords are byte-identical to the
// table-multiply RS backend (tests exploit this as a differential oracle).
// What changes is the arithmetic: instead of per-(row, block) GF(256) table
// multiplies, each coefficient c expands into the 8x8 bit matrix whose
// column b is c * 2^b over GF(256) (jerasure matrix_to_bitmatrix), and the
// whole parity computation flattens into a precomputed XOR program
// (bitmatrix_to_schedule): parity bit-plane (p, i) is the XOR of data
// bit-planes (j, b) for every set bit (i, b) of the expansion of C[p][j].
//
// Blocks are transposed into 8 bit-planes of S = ceil(len/8) bytes each
// (plane b, byte s, bit r holds bit b of block byte 8s+r) via a u64 8x8
// bit-matrix transpose, the schedule runs word-wise XORs over whole planes,
// and parities transpose back. Because the symbols are plain block bytes,
// padding symbols past len are zero, so parity bytes past len are zero too
// and blocks of any length round-trip exactly like RS. Plane XOR uses a
// single u64 register per parity plane at the paper geometry (len 64, S 8)
// and streams through the dispatched GF(256) kernel (addmul with coeff 1 is
// pure XOR) for large blocks.
#include <algorithm>
#include <cstring>

#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/gf256_kernels.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::erasure {

namespace {

/// Transposes the 8x8 bit matrix whose row r is byte r of x (Hacker's
/// Delight 7-7): out byte b, bit r == in byte r, bit b. Involutive.
inline std::uint64_t transpose8(std::uint64_t x) {
  std::uint64_t t;
  t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x = x ^ t ^ (t << 28);
  return x;
}

/// Spreads a len-byte block (zero-padded to 8*S) into 8 bit-planes of S
/// bytes: planes[b*S + s] bit r == bit b of block byte 8s + r.
void to_planes(const std::uint8_t* block, std::size_t len, std::size_t S,
               std::uint8_t* planes) {
  for (std::size_t s = 0; s < S; ++s) {
    std::uint64_t x = 0;
    const std::size_t base = 8 * s;
    const std::size_t take = std::min<std::size_t>(8, len - base);
    for (std::size_t r = 0; r < take; ++r)
      x |= static_cast<std::uint64_t>(block[base + r]) << (8 * r);
    const std::uint64_t y = transpose8(x);
    for (std::size_t b = 0; b < 8; ++b)
      planes[b * S + s] = static_cast<std::uint8_t>(y >> (8 * b));
  }
}

/// Inverse of to_planes; writes exactly len bytes.
void from_planes(const std::uint8_t* planes, std::size_t S, std::uint8_t* out,
                 std::size_t len) {
  for (std::size_t s = 0; s < S; ++s) {
    std::uint64_t y = 0;
    for (std::size_t b = 0; b < 8; ++b)
      y |= static_cast<std::uint64_t>(planes[b * S + s]) << (8 * b);
    const std::uint64_t x = transpose8(y);
    const std::size_t base = 8 * s;
    const std::size_t put = std::min<std::size_t>(8, len - base);
    for (std::size_t r = 0; r < put; ++r)
      out[base + r] = static_cast<std::uint8_t>(x >> (8 * r));
  }
}

/// Flattened XOR program: dst plane d reads src planes
/// src[begin[d] .. begin[d+1]).
struct XorSchedule {
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> src;
};

/// Expands every coefficient of `m` into its 8x8 bit block and flattens the
/// set bits into per-destination-plane source lists. Rows index destination
/// blocks, columns index source blocks.
XorSchedule compile_schedule(const MatrixGf256& m) {
  XorSchedule sched;
  sched.begin.reserve(m.rows() * 8 + 1);
  sched.begin.push_back(0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        const std::uint8_t c = m.at(r, j);
        if (c == 0) continue;
        for (std::size_t b = 0; b < 8; ++b) {
          const std::uint8_t prod =
              Gf256::mul(c, static_cast<std::uint8_t>(1u << b));
          if (prod & (1u << i))
            sched.src.push_back(static_cast<std::uint32_t>(j * 8 + b));
        }
      }
      sched.begin.push_back(static_cast<std::uint32_t>(sched.src.size()));
    }
  }
  return sched;
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void xor_bytes(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a = load64(dst + i);
    a ^= load64(src + i);
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// Runs the program: dst planes (pre-zeroed, dst_count of them) accumulate
/// XORs of src planes, all of stride S bytes.
void run_schedule(const XorSchedule& sched, const std::uint8_t* src_planes,
                  std::uint8_t* dst_planes, std::size_t dst_count,
                  std::size_t S) {
  if (S == 8) {
    // Paper geometry (64-byte payload): one u64 register per plane.
    for (std::size_t d = 0; d < dst_count; ++d) {
      std::uint64_t acc = 0;
      for (std::uint32_t e = sched.begin[d]; e < sched.begin[d + 1]; ++e)
        acc ^= load64(src_planes + sched.src[e] * 8);
      std::memcpy(dst_planes + d * 8, &acc, 8);
    }
    return;
  }
  if (S >= 64) {
    // Wide planes: stream through the dispatched SIMD kernel (coeff-1
    // addmul is a pure XOR).
    const Gf256Kernel& kern = gf256_kernel();
    for (std::size_t d = 0; d < dst_count; ++d) {
      for (std::uint32_t e = sched.begin[d]; e < sched.begin[d + 1]; ++e)
        kern.addmul(dst_planes + d * S, src_planes + sched.src[e] * S, S, 1);
    }
    return;
  }
  for (std::size_t d = 0; d < dst_count; ++d) {
    for (std::uint32_t e = sched.begin[d]; e < sched.begin[d + 1]; ++e)
      xor_bytes(dst_planes + d * S, src_planes + sched.src[e] * S, S);
  }
}

class XorScheduleCode final : public ErasureCode {
 public:
  XorScheduleCode(std::size_t k, std::size_t n)
      : k_(k), n_(n), generator_(n, k) {
    LRS_CHECK_MSG(k >= 1 && k <= n, "xorsched requires 1 <= k <= n");
    LRS_CHECK_MSG(n <= 255, "Cauchy RS over GF(256) supports n <= 255");
    for (std::size_t i = 0; i < k_; ++i) generator_.set(i, i, 1);
    for (std::size_t r = 0; r + k_ < n_; ++r) {
      const std::uint8_t x = static_cast<std::uint8_t>(r);
      for (std::size_t j = 0; j < k_; ++j) {
        const std::uint8_t y = static_cast<std::uint8_t>(n_ - k_ + j);
        generator_.set(k_ + r, j, Gf256::inv(Gf256::add(x, y)));
      }
    }
    if (n_ > k_) {
      MatrixGf256 parity(n_ - k_, k_);
      for (std::size_t r = 0; r < n_ - k_; ++r) {
        for (std::size_t j = 0; j < k_; ++j)
          parity.set(r, j, generator_.at(k_ + r, j));
      }
      encode_sched_ = compile_schedule(parity);
    }
  }

  std::size_t k() const override { return k_; }
  std::size_t n() const override { return n_; }
  std::size_t decode_threshold() const override { return k_; }
  std::string name() const override { return "xorsched"; }

  void encode(ByteView data, MutByteView out) const override {
    static stats::Timer& timer =
        stats::Registry::instance().timer("erasure.xorsched.encode");
    stats::TimerScope scope(timer);
    LRS_CHECK(data.size() % k_ == 0);
    const std::size_t len = data.size() / k_;
    LRS_CHECK(out.size() == n_ * len);
    std::copy(data.begin(), data.end(), out.begin());
    if (n_ == k_) return;

    const std::size_t m = n_ - k_;
    const std::size_t S = (len + 7) / 8;
    Bytes data_planes(k_ * 8 * S, 0);
    for (std::size_t j = 0; j < k_; ++j)
      to_planes(data.data() + j * len, len, S, data_planes.data() + j * 8 * S);
    Bytes parity_planes(m * 8 * S, 0);
    run_schedule(encode_sched_, data_planes.data(), parity_planes.data(),
                 m * 8, S);
    for (std::size_t p = 0; p < m; ++p) {
      from_planes(parity_planes.data() + p * 8 * S, S,
                  out.data() + (k_ + p) * len, len);
    }
  }

  bool decode(const std::vector<Share>& shares,
              MutByteView out) const override {
    static stats::Timer& timer =
        stats::Registry::instance().timer("erasure.xorsched.decode");
    stats::TimerScope scope(timer);
    LRS_CHECK(out.size() % k_ == 0);
    const std::size_t len = out.size() / k_;
    std::vector<const Share*> picked;
    std::vector<bool> seen(n_, false);
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      picked.push_back(&s);
      if (picked.size() == k_) break;
    }
    if (picked.size() < k_) return false;
    for (const auto* s : picked) LRS_CHECK(s->data.size() == len);

    const bool all_systematic =
        std::all_of(picked.begin(), picked.end(),
                    [&](const Share* s) { return s->index < k_; });
    if (all_systematic) {
      for (const auto* s : picked) {
        std::copy(s->data.begin(), s->data.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(s->index * len));
      }
      return true;
    }

    MatrixGf256 sub(k_, k_);
    for (std::size_t r = 0; r < k_; ++r) {
      for (std::size_t c = 0; c < k_; ++c)
        sub.set(r, c, generator_.at(picked[r]->index, c));
    }
    auto inv = sub.inverted();
    LRS_CHECK_MSG(inv.has_value(), "MDS property violated (bug)");
    const XorSchedule sched = compile_schedule(*inv);

    const std::size_t S = (len + 7) / 8;
    Bytes recv_planes(k_ * 8 * S, 0);
    for (std::size_t r = 0; r < k_; ++r) {
      to_planes(picked[r]->data.data(), len, S,
                recv_planes.data() + r * 8 * S);
    }
    Bytes out_planes(k_ * 8 * S, 0);
    run_schedule(sched, recv_planes.data(), out_planes.data(), k_ * 8, S);
    for (std::size_t j = 0; j < k_; ++j)
      from_planes(out_planes.data() + j * 8 * S, S, out.data() + j * len, len);
    return true;
  }

 private:
  std::size_t k_, n_;
  MatrixGf256 generator_;
  XorSchedule encode_sched_;
};

}  // namespace

std::unique_ptr<ErasureCode> make_xorsched_code(std::size_t k,
                                                std::size_t n) {
  return std::make_unique<XorScheduleCode>(k, n);
}

}  // namespace lrs::erasure
