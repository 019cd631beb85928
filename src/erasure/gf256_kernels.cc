#include "erasure/gf256_kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define LRS_GF256_X86 1
#include <immintrin.h>
#endif

namespace lrs::erasure {

namespace detail {

const Gf256Tables& gf256_tables() {
  static const Gf256Tables t = [] {
    Gf256Tables tb{};
    // Generator 0x03 is primitive for the AES polynomial 0x11b.
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      tb.exp[i] = static_cast<std::uint8_t>(x);
      tb.log[x] = static_cast<std::uint16_t>(i);
      // x *= 3 in GF(256): x*2 ^ x with reduction.
      std::uint16_t x2 = static_cast<std::uint16_t>(x << 1);
      if (x2 & 0x100) x2 ^= 0x11b;
      x = static_cast<std::uint16_t>(x2 ^ x);
    }
    for (int i = 255; i < 510; ++i) tb.exp[i] = tb.exp[i - 255];
    // Zero-propagating sentinel instead of the old `log[0] = 0` footgun:
    // log of a nonzero element is at most 254 and exp[] is zero from index
    // 510 on, so exp[log[a] + log[b]] lands in the zero region — and thus
    // correctly yields 0 — whenever a or b is 0 (worst case 512+512 = 1024
    // < kExpSize). An unguarded caller can no longer silently compute
    // 0 * x == exp[log[x]] == x.
    tb.log[0] = kLogZeroSentinel;
    for (std::size_t i = 510; i < kExpSize; ++i) tb.exp[i] = 0;
    return tb;
  }();
  return t;
}

}  // namespace detail

namespace {

using detail::gf256_tables;

// ---------------------------------------------------------------------------
// Reference kernel: the original branchy per-byte log/exp loop. This is the
// differential-testing oracle — do not optimize it.
// ---------------------------------------------------------------------------

void addmul_ref(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                std::uint8_t coeff) {
  if (coeff == 0) return;
  if (coeff == 1) {
    for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& t = gf256_tables();
  const unsigned lc = t.log[coeff];
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint8_t s = src[i];
    if (s != 0) dst[i] ^= t.exp[lc + t.log[s]];
  }
}

void scale_ref(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1) return;
  if (coeff == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty views carry nullptr
    return;
  }
  const auto& t = gf256_tables();
  const unsigned lc = t.log[coeff];
  for (std::size_t i = 0; i < len; ++i) {
    if (dst[i] != 0) dst[i] = t.exp[lc + t.log[dst[i]]];
  }
}

// ---------------------------------------------------------------------------
// Full multiplication table (64 KB, row c = c*x for all x) and the per-
// coefficient nibble split tables (8 KB) the SIMD kernels shuffle from.
// Both derive from the log/exp tables and are built lazily on first use.
// ---------------------------------------------------------------------------

struct MulTable {
  std::uint8_t row[256][256];
};

const MulTable& mul_table() {
  static const MulTable m = [] {
    MulTable mt;
    const auto& t = gf256_tables();
    std::memset(mt.row[0], 0, 256);
    for (std::size_t c = 1; c < 256; ++c) {
      const unsigned lc = t.log[c];
      mt.row[c][0] = 0;
      for (std::size_t x = 1; x < 256; ++x)
        mt.row[c][x] = t.exp[lc + t.log[x]];
    }
    return mt;
  }();
  return m;
}

// Row c: bytes [0,16) = c * x for x in 0..15 (low nibble products),
// bytes [16,32) = c * (x << 4) (high nibble products). GF multiplication
// distributes over the nibble split: c*v == c*(v & 0xf) ^ c*(v & 0xf0).
struct NibbleTable {
  alignas(32) std::uint8_t row[256][32];
};

const NibbleTable& nibble_table() {
  static const NibbleTable n = [] {
    NibbleTable nt;
    const auto& m = mul_table();
    for (std::size_t c = 0; c < 256; ++c) {
      for (std::size_t x = 0; x < 16; ++x) {
        nt.row[c][x] = m.row[c][x];
        nt.row[c][16 + x] = m.row[c][x << 4];
      }
    }
    return nt;
  }();
  return n;
}

// ---------------------------------------------------------------------------
// Portable table kernel: one load per byte from the coefficient's product
// row, no branch in the loop body, 8 bytes per unrolled iteration.
// ---------------------------------------------------------------------------

inline void xor_bytes(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t d, s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

void addmul_table(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                  std::uint8_t coeff) {
  if (coeff == 0) return;
  if (coeff == 1) {
    xor_bytes(dst, src, len);
    return;
  }
  const std::uint8_t* row = mul_table().row[coeff];
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    dst[i] ^= row[src[i]];
    dst[i + 1] ^= row[src[i + 1]];
    dst[i + 2] ^= row[src[i + 2]];
    dst[i + 3] ^= row[src[i + 3]];
    dst[i + 4] ^= row[src[i + 4]];
    dst[i + 5] ^= row[src[i + 5]];
    dst[i + 6] ^= row[src[i + 6]];
    dst[i + 7] ^= row[src[i + 7]];
  }
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

void scale_table(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1) return;
  if (coeff == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty views carry nullptr
    return;
  }
  const std::uint8_t* row = mul_table().row[coeff];
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    dst[i] = row[dst[i]];
    dst[i + 1] = row[dst[i + 1]];
    dst[i + 2] = row[dst[i + 2]];
    dst[i + 3] = row[dst[i + 3]];
    dst[i + 4] = row[dst[i + 4]];
    dst[i + 5] = row[dst[i + 5]];
    dst[i + 6] = row[dst[i + 6]];
    dst[i + 7] = row[dst[i + 7]];
  }
  for (; i < len; ++i) dst[i] = row[dst[i]];
}

/// Bytes [from, len) of dot as a zero fill plus one `Addmul` per source:
/// the whole dot of the ref and table tiers, and the sub-vector tail of the
/// SIMD ones.
template <auto Addmul>
void dot_composed(std::uint8_t* dst, const std::uint8_t* const* src,
                  const std::uint8_t* coeff, std::size_t count,
                  std::size_t from, std::size_t len) {
  if (from == len) return;  // empty views carry nullptr
  std::memset(dst + from, 0, len - from);
  for (std::size_t s = 0; s < count; ++s)
    Addmul(dst + from, src[s] + from, len - from, coeff[s]);
}

void dot_ref(std::uint8_t* dst, const std::uint8_t* const* src,
             const std::uint8_t* coeff, std::size_t count, std::size_t len) {
  dot_composed<addmul_ref>(dst, src, coeff, count, 0, len);
}

void dot_table(std::uint8_t* dst, const std::uint8_t* const* src,
               const std::uint8_t* coeff, std::size_t count, std::size_t len) {
  dot_composed<addmul_table>(dst, src, coeff, count, 0, len);
}

// ---------------------------------------------------------------------------
// SSSE3 / AVX2 kernels: split each byte into nibbles and use pshufb as a
// 16-way parallel table lookup — two shuffles + xor per 16 (or 32) bytes.
// Compiled with per-function target attributes so the translation unit
// builds without global -mssse3/-mavx2; runtime CPUID gates selection.
// ---------------------------------------------------------------------------

#ifdef LRS_GF256_X86

__attribute__((target("ssse3"))) void addmul_ssse3(std::uint8_t* dst,
                                                   const std::uint8_t* src,
                                                   std::size_t len,
                                                   std::uint8_t coeff) {
  if (coeff == 0) return;
  const std::uint8_t* nib = nibble_table().row[coeff];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(nib));
  const __m128i hi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i l = _mm_and_si128(v, mask);
    const __m128i h = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    const __m128i p =
        _mm_xor_si128(_mm_shuffle_epi8(lo, l), _mm_shuffle_epi8(hi, h));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, p));
  }
  if (i < len) addmul_table(dst + i, src + i, len - i, coeff);
}

__attribute__((target("ssse3"))) void scale_ssse3(std::uint8_t* dst,
                                                  std::size_t len,
                                                  std::uint8_t coeff) {
  if (coeff == 1) return;
  if (coeff == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty views carry nullptr
    return;
  }
  const std::uint8_t* nib = nibble_table().row[coeff];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(nib));
  const __m128i hi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i l = _mm_and_si128(v, mask);
    const __m128i h = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    const __m128i p =
        _mm_xor_si128(_mm_shuffle_epi8(lo, l), _mm_shuffle_epi8(hi, h));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p);
  }
  if (i < len) scale_table(dst + i, len - i, coeff);
}

/// One strip of V 16-byte vectors at offset `off`: the accumulators stay in
/// registers across every source and dst is stored once.
template <std::size_t V>
__attribute__((target("ssse3"))) inline void dot_strip_ssse3(
    std::uint8_t* dst, const std::uint8_t* const* src,
    const std::uint8_t* coeff, std::size_t count, std::size_t off) {
  const auto& nt = nibble_table();
  const __m128i mask = _mm_set1_epi8(0x0f);
  __m128i acc[V];
  for (std::size_t v = 0; v < V; ++v) acc[v] = _mm_setzero_si128();
  for (std::size_t s = 0; s < count; ++s) {
    if (coeff[s] == 0) continue;
    const std::uint8_t* nib = nt.row[coeff[s]];
    const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(nib));
    const __m128i hi =
        _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16));
    const std::uint8_t* p = src[s] + off;
    for (std::size_t v = 0; v < V; ++v) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * v));
      const __m128i l = _mm_and_si128(x, mask);
      const __m128i h = _mm_and_si128(_mm_srli_epi64(x, 4), mask);
      acc[v] = _mm_xor_si128(acc[v], _mm_xor_si128(_mm_shuffle_epi8(lo, l),
                                                   _mm_shuffle_epi8(hi, h)));
    }
  }
  for (std::size_t v = 0; v < V; ++v)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + off + 16 * v), acc[v]);
}

__attribute__((target("ssse3"))) void dot_ssse3(
    std::uint8_t* dst, const std::uint8_t* const* src,
    const std::uint8_t* coeff, std::size_t count, std::size_t len) {
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64)
    dot_strip_ssse3<4>(dst, src, coeff, count, i);
  for (; i + 16 <= len; i += 16)
    dot_strip_ssse3<1>(dst, src, coeff, count, i);
  dot_composed<addmul_table>(dst, src, coeff, count, i, len);
}

__attribute__((target("avx2"))) void addmul_avx2(std::uint8_t* dst,
                                                 const std::uint8_t* src,
                                                 std::size_t len,
                                                 std::uint8_t coeff) {
  if (coeff == 0) return;
  const std::uint8_t* nib = nibble_table().row[coeff];
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i l = _mm256_and_si256(v, mask);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    const __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo, l),
                                       _mm256_shuffle_epi8(hi, h));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  if (i < len) addmul_ssse3(dst + i, src + i, len - i, coeff);
}

__attribute__((target("avx2"))) void scale_avx2(std::uint8_t* dst,
                                                std::size_t len,
                                                std::uint8_t coeff) {
  if (coeff == 1) return;
  if (coeff == 0) {
    if (len != 0) std::memset(dst, 0, len);  // empty views carry nullptr
    return;
  }
  const std::uint8_t* nib = nibble_table().row[coeff];
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i l = _mm256_and_si256(v, mask);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    const __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo, l),
                                       _mm256_shuffle_epi8(hi, h));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  if (i < len) scale_ssse3(dst + i, len - i, coeff);
}

/// AVX2 counterpart of dot_strip_ssse3: V 32-byte vectors at `off`.
template <std::size_t V>
__attribute__((target("avx2"))) inline void dot_strip_avx2(
    std::uint8_t* dst, const std::uint8_t* const* src,
    const std::uint8_t* coeff, std::size_t count, std::size_t off) {
  const auto& nt = nibble_table();
  const __m256i mask = _mm256_set1_epi8(0x0f);
  __m256i acc[V];
  for (std::size_t v = 0; v < V; ++v) acc[v] = _mm256_setzero_si256();
  for (std::size_t s = 0; s < count; ++s) {
    if (coeff[s] == 0) continue;
    const std::uint8_t* nib = nt.row[coeff[s]];
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(nib)));
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(nib + 16)));
    const std::uint8_t* p = src[s] + off;
    for (std::size_t v = 0; v < V; ++v) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * v));
      const __m256i l = _mm256_and_si256(x, mask);
      const __m256i h = _mm256_and_si256(_mm256_srli_epi64(x, 4), mask);
      acc[v] = _mm256_xor_si256(
          acc[v], _mm256_xor_si256(_mm256_shuffle_epi8(lo, l),
                                   _mm256_shuffle_epi8(hi, h)));
    }
  }
  for (std::size_t v = 0; v < V; ++v)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + off + 32 * v),
                        acc[v]);
}

__attribute__((target("avx2"))) void dot_avx2(
    std::uint8_t* dst, const std::uint8_t* const* src,
    const std::uint8_t* coeff, std::size_t count, std::size_t len) {
  std::size_t i = 0;
  for (; i + 128 <= len; i += 128)
    dot_strip_avx2<4>(dst, src, coeff, count, i);
  // The paper's 64-byte blocks land here: one two-register strip.
  for (; i + 64 <= len; i += 64)
    dot_strip_avx2<2>(dst, src, coeff, count, i);
  for (; i + 32 <= len; i += 32)
    dot_strip_avx2<1>(dst, src, coeff, count, i);
  for (; i + 16 <= len; i += 16)
    dot_strip_ssse3<1>(dst, src, coeff, count, i);
  dot_composed<addmul_table>(dst, src, coeff, count, i, len);
}

#endif  // LRS_GF256_X86

// ---------------------------------------------------------------------------
// Registry and runtime selection.
// ---------------------------------------------------------------------------

constexpr Gf256Kernel kRefKernel{"ref", addmul_ref, scale_ref, dot_ref};
constexpr Gf256Kernel kTableKernel{"table", addmul_table, scale_table,
                                   dot_table};
#ifdef LRS_GF256_X86
constexpr Gf256Kernel kSsse3Kernel{"ssse3", addmul_ssse3, scale_ssse3,
                                   dot_ssse3};
constexpr Gf256Kernel kAvx2Kernel{"avx2", addmul_avx2, scale_avx2, dot_avx2};
#endif

/// Kernels runnable on this CPU, slowest to fastest.
std::vector<const Gf256Kernel*> runnable_kernels() {
  std::vector<const Gf256Kernel*> v{&kRefKernel, &kTableKernel};
#ifdef LRS_GF256_X86
  if (__builtin_cpu_supports("ssse3")) v.push_back(&kSsse3Kernel);
  if (__builtin_cpu_supports("avx2")) v.push_back(&kAvx2Kernel);
#endif
  return v;
}

const Gf256Kernel* select_auto() { return runnable_kernels().back(); }

struct ActiveKernel {
  std::atomic<const Gf256Kernel*> ptr;

  ActiveKernel() {
    const Gf256Kernel* chosen = nullptr;
    const char* env = std::getenv("LRS_GF256_KERNEL");
    if (env != nullptr && env[0] != '\0' && std::string(env) != "auto") {
      chosen = gf256_find_kernel(env);
      if (chosen == nullptr) {
        std::fprintf(stderr,
                     "[WARN] LRS_GF256_KERNEL=%s unknown or unsupported on "
                     "this CPU; falling back to auto selection\n",
                     env);
      }
    }
    if (chosen == nullptr) chosen = select_auto();
    ptr.store(chosen, std::memory_order_release);
  }
};

ActiveKernel& active_kernel() {
  static ActiveKernel a;
  return a;
}

}  // namespace

const Gf256Kernel& gf256_kernel() {
  return *active_kernel().ptr.load(std::memory_order_acquire);
}

std::vector<std::string> gf256_available_kernels() {
  std::vector<std::string> names;
  for (const auto* k : runnable_kernels()) names.emplace_back(k->name);
  return names;
}

const Gf256Kernel* gf256_find_kernel(const std::string& name) {
  for (const auto* k : runnable_kernels()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

bool gf256_set_kernel(const std::string& name) {
  const Gf256Kernel* k =
      name == "auto" ? select_auto() : gf256_find_kernel(name);
  if (k == nullptr) return false;
  active_kernel().ptr.store(k, std::memory_order_release);
  return true;
}

const std::uint8_t* gf256_mul_table() { return mul_table().row[0]; }

}  // namespace lrs::erasure
