#include "crypto/sha256_kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define LRS_SHA256_X86 1
#include <immintrin.h>
#endif

namespace lrs::crypto {

namespace {

// FIPS 180-4 round constants. The SHA-NI path loads them 4 at a time, so
// keep the array addressable rather than folding into immediates.
alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}
inline std::uint32_t bsig0(std::uint32_t x) {
  return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22);
}
inline std::uint32_t bsig1(std::uint32_t x) {
  return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25);
}
inline std::uint32_t ssig0(std::uint32_t x) {
  return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t ssig1(std::uint32_t x) {
  return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

// ---------------------------------------------------------------------------
// Reference kernel: the original rolled scalar loop (moved verbatim from
// Sha256::process_block). This is the differential-testing oracle — do not
// optimize it.
// ---------------------------------------------------------------------------

void compress_ref(std::uint32_t* state, const std::uint8_t* data,
                  std::size_t blocks) {
  while (blocks-- > 0) {
    const std::uint8_t* block = data;
    data += 64;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      w[i] = ssig1(w[i - 2]) + w[i - 7] + ssig0(w[i - 15]) + w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 =
          h + bsig1(e) + ((e & f) ^ (~e & g)) + kK[i] + w[i];
      const std::uint32_t t2 = bsig0(a) + ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// ---------------------------------------------------------------------------
// Portable unrolled kernel: all 64 rounds spelled out with the message
// schedule kept in a rotating 16-word window. No register shuffling — the
// a..h rotation is expressed by permuting macro arguments — and no w[64]
// array traffic.
// ---------------------------------------------------------------------------

// One round. `i` is always a compile-time constant, so the schedule branch
// and all the & 15 ring indices fold away.
#define LRS_SHA256_RND(A, B, C, D, E, F, G, H, i)                           \
  do {                                                                      \
    if ((i) >= 16) {                                                        \
      w[(i) & 15] += ssig1(w[((i) - 2) & 15]) + w[((i) - 7) & 15] +         \
                     ssig0(w[((i) - 15) & 15]);                             \
    }                                                                       \
    const std::uint32_t t1 =                                                \
        H + bsig1(E) + ((E & F) ^ (~E & G)) + kK[i] + w[(i) & 15];          \
    const std::uint32_t t2 = bsig0(A) + ((A & B) ^ (A & C) ^ (B & C));      \
    D += t1;                                                                \
    H = t1 + t2;                                                            \
  } while (0)

#define LRS_SHA256_8RND(i)                            \
  LRS_SHA256_RND(a, b, c, d, e, f, g, h, (i) + 0);    \
  LRS_SHA256_RND(h, a, b, c, d, e, f, g, (i) + 1);    \
  LRS_SHA256_RND(g, h, a, b, c, d, e, f, (i) + 2);    \
  LRS_SHA256_RND(f, g, h, a, b, c, d, e, (i) + 3);    \
  LRS_SHA256_RND(e, f, g, h, a, b, c, d, (i) + 4);    \
  LRS_SHA256_RND(d, e, f, g, h, a, b, c, (i) + 5);    \
  LRS_SHA256_RND(c, d, e, f, g, h, a, b, (i) + 6);    \
  LRS_SHA256_RND(b, c, d, e, f, g, h, a, (i) + 7)

void compress_unrolled(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  while (blocks-- > 0) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    data += 64;

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    LRS_SHA256_8RND(0);
    LRS_SHA256_8RND(8);
    LRS_SHA256_8RND(16);
    LRS_SHA256_8RND(24);
    LRS_SHA256_8RND(32);
    LRS_SHA256_8RND(40);
    LRS_SHA256_8RND(48);
    LRS_SHA256_8RND(56);

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#undef LRS_SHA256_8RND
#undef LRS_SHA256_RND

// ---------------------------------------------------------------------------
// x86 SHA-NI kernel: sha256rnds2 performs two rounds per instruction;
// sha256msg1/msg2 compute the message schedule four words at a time.
// Compiled with per-function target attributes so the translation unit
// builds without global -msha; runtime CPUID gates selection.
// ---------------------------------------------------------------------------

#ifdef LRS_SHA256_X86

// Schedule-active 4-round group: consumes m_cur, folds the schedule update
// into m_next (msg2) and m_prev (msg1). Used for rounds 12..51 where both
// halves of the W recurrence are still live.
#define LRS_SHANI_4RND_SCHED(m_cur, m_prev, m_next, k_idx)                  \
  do {                                                                      \
    msg = _mm_add_epi32(                                                    \
        m_cur, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[k_idx]))); \
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);                    \
    tmp = _mm_alignr_epi8(m_cur, m_prev, 4);                                \
    m_next = _mm_add_epi32(m_next, tmp);                                    \
    m_next = _mm_sha256msg2_epu32(m_next, m_cur);                           \
    msg = _mm_shuffle_epi32(msg, 0x0E);                                     \
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);                    \
    m_prev = _mm_sha256msg1_epu32(m_prev, m_cur);                           \
  } while (0)

__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i kSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Repack {a..h} into the ABEF/CDGH register layout sha256rnds2 expects.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  while (blocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg;

    // Rounds 0-3.
    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), kSwap);
    msg = _mm_add_epi32(msg0,
                        _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[0])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7.
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kSwap);
    msg = _mm_add_epi32(msg1,
                        _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11.
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kSwap);
    msg = _mm_add_epi32(msg2,
                        _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[8])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15 and onward: uniform schedule-active groups, rotating
    // the message registers (cur, prev, next).
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kSwap);
    LRS_SHANI_4RND_SCHED(msg3, msg2, msg0, 12);
    LRS_SHANI_4RND_SCHED(msg0, msg3, msg1, 16);
    LRS_SHANI_4RND_SCHED(msg1, msg0, msg2, 20);
    LRS_SHANI_4RND_SCHED(msg2, msg1, msg3, 24);
    LRS_SHANI_4RND_SCHED(msg3, msg2, msg0, 28);
    LRS_SHANI_4RND_SCHED(msg0, msg3, msg1, 32);
    LRS_SHANI_4RND_SCHED(msg1, msg0, msg2, 36);
    LRS_SHANI_4RND_SCHED(msg2, msg1, msg3, 40);
    LRS_SHANI_4RND_SCHED(msg3, msg2, msg0, 44);
    LRS_SHANI_4RND_SCHED(msg0, msg3, msg1, 48);

    // Rounds 52-55 (schedule tail: msg2 still needs its msg2 step).
    msg = _mm_add_epi32(
        msg1, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[52])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59.
    msg = _mm_add_epi32(
        msg2, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[56])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63.
    msg = _mm_add_epi32(
        msg3, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[60])));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  // Unpack ABEF/CDGH back to {a..h}.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#undef LRS_SHANI_4RND_SCHED

// ---------------------------------------------------------------------------
// Multi-buffer kernels: each vector lane carries one independent message's
// state, so one pass over the 64 rounds compresses 4 (SSE2) or 8 (AVX2)
// same-position blocks at once. Lane gather/scatter goes through small
// stack arrays — the round arithmetic dominates by an order of magnitude.
// ---------------------------------------------------------------------------

#define LRS_MB_ROTR(OR, SRL, SLL, x, n) OR(SRL(x, n), SLL(x, 32 - (n)))

#define LRS_SHA256_MB_BODY(VEC, SET1, ADD, AND, ANDNOT, OR, XOR, SRL, SLL,  \
                           LANES)                                           \
  VEC s[8];                                                                 \
  alignas(32) std::uint32_t lane[LANES];                                    \
  for (int j = 0; j < 8; ++j) {                                             \
    for (int l = 0; l < LANES; ++l) lane[l] = states[8 * l + j];            \
    s[j] = LRS_MB_LOAD(lane);                                               \
  }                                                                         \
  VEC w[16];                                                                \
  for (int t = 0; t < 16; ++t) {                                            \
    for (int l = 0; l < LANES; ++l) lane[l] = load_be32(data[l] + 4 * t);   \
    w[t] = LRS_MB_LOAD(lane);                                               \
  }                                                                         \
  VEC a = s[0], b = s[1], c = s[2], d = s[3];                               \
  VEC e = s[4], f = s[5], g = s[6], h = s[7];                               \
  for (int t = 0; t < 64; ++t) {                                            \
    if (t >= 16) {                                                          \
      const VEC w2 = w[(t - 2) & 15], w15 = w[(t - 15) & 15];               \
      const VEC sig1 = XOR(XOR(LRS_MB_ROTR(OR, SRL, SLL, w2, 17), LRS_MB_ROTR(OR, SRL, SLL, w2, 19)),   \
                           SRL(w2, 10));                                    \
      const VEC sig0 = XOR(XOR(LRS_MB_ROTR(OR, SRL, SLL, w15, 7), LRS_MB_ROTR(OR, SRL, SLL, w15, 18)),  \
                           SRL(w15, 3));                                    \
      w[t & 15] = ADD(ADD(w[t & 15], sig1), ADD(w[(t - 7) & 15], sig0));    \
    }                                                                       \
    const VEC bs1 = XOR(XOR(LRS_MB_ROTR(OR, SRL, SLL, e, 6), LRS_MB_ROTR(OR, SRL, SLL, e, 11)),         \
                        LRS_MB_ROTR(OR, SRL, SLL, e, 25));                                \
    const VEC ch = XOR(AND(e, f), ANDNOT(e, g));                            \
    const VEC t1 =                                                          \
        ADD(ADD(ADD(h, bs1), ADD(ch, SET1(static_cast<int>(kK[t])))),       \
            w[t & 15]);                                                     \
    const VEC bs0 = XOR(XOR(LRS_MB_ROTR(OR, SRL, SLL, a, 2), LRS_MB_ROTR(OR, SRL, SLL, a, 13)),         \
                        LRS_MB_ROTR(OR, SRL, SLL, a, 22));                                \
    const VEC maj = XOR(XOR(AND(a, b), AND(a, c)), AND(b, c));              \
    const VEC t2 = ADD(bs0, maj);                                           \
    h = g;                                                                  \
    g = f;                                                                  \
    f = e;                                                                  \
    e = ADD(d, t1);                                                         \
    d = c;                                                                  \
    c = b;                                                                  \
    b = a;                                                                  \
    a = ADD(t1, t2);                                                        \
  }                                                                         \
  const VEC out[8] = {ADD(s[0], a), ADD(s[1], b), ADD(s[2], c),             \
                      ADD(s[3], d), ADD(s[4], e), ADD(s[5], f),             \
                      ADD(s[6], g), ADD(s[7], h)};                          \
  for (int j = 0; j < 8; ++j) {                                             \
    LRS_MB_STORE(lane, out[j]);                                             \
    for (int l = 0; l < LANES; ++l) states[8 * l + j] = lane[l];            \
  }

// One block of exactly 4 messages (SSE2 — baseline on x86-64).
#pragma GCC push_options
#pragma GCC target("sse2")
#define LRS_MB_LOAD(p) _mm_load_si128(reinterpret_cast<const __m128i*>(p))
#define LRS_MB_STORE(p, v) _mm_store_si128(reinterpret_cast<__m128i*>(p), v)
void compress_mb4_group(std::uint32_t* states,
                        const std::uint8_t* const* data) {
  LRS_SHA256_MB_BODY(__m128i, _mm_set1_epi32, _mm_add_epi32, _mm_and_si128,
                     _mm_andnot_si128, _mm_or_si128, _mm_xor_si128,
                     _mm_srli_epi32, _mm_slli_epi32, 4)
}
#undef LRS_MB_LOAD
#undef LRS_MB_STORE
#pragma GCC pop_options

// One block of exactly 8 messages (AVX2).
#pragma GCC push_options
#pragma GCC target("avx2")
#define LRS_MB_LOAD(p) _mm256_load_si256(reinterpret_cast<const __m256i*>(p))
#define LRS_MB_STORE(p, v) \
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v)
void compress_mb8_group(std::uint32_t* states,
                        const std::uint8_t* const* data) {
  LRS_SHA256_MB_BODY(__m256i, _mm256_set1_epi32, _mm256_add_epi32,
                     _mm256_and_si256, _mm256_andnot_si256, _mm256_or_si256,
                     _mm256_xor_si256, _mm256_srli_epi32, _mm256_slli_epi32,
                     8)
}
#undef LRS_MB_LOAD
#undef LRS_MB_STORE
#pragma GCC pop_options

#undef LRS_SHA256_MB_BODY
#undef LRS_MB_ROTR

void compress_batch_mb4(std::uint32_t* states, const std::uint8_t* const* data,
                        std::size_t count) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) compress_mb4_group(states + 8 * i, data + i);
  for (; i < count; ++i) compress_unrolled(states + 8 * i, data[i], 1);
}

void compress_batch_mb8(std::uint32_t* states, const std::uint8_t* const* data,
                        std::size_t count) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) compress_mb8_group(states + 8 * i, data + i);
  for (; i + 4 <= count; i += 4) compress_mb4_group(states + 8 * i, data + i);
  for (; i < count; ++i) compress_unrolled(states + 8 * i, data[i], 1);
}

// Batch adapter over the SHA-NI single-stream kernel. Measured on a Xeon
// with both extensions, looping sha256rnds2 outruns the 8-lane AVX2
// multi-buffer kernel (~1.4 GB/s vs ~1.0 GB/s on 8x64B), so this ranks
// highest when the CPU has SHA extensions.
void compress_batch_shani(std::uint32_t* states,
                          const std::uint8_t* const* data, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    compress_shani(states + 8 * i, data[i], 1);
  }
}

#endif  // LRS_SHA256_X86

// ---------------------------------------------------------------------------
// Registry and runtime selection.
// ---------------------------------------------------------------------------

constexpr Sha256Kernel kRefKernel{"ref", compress_ref};
constexpr Sha256Kernel kUnrolledKernel{"unrolled", compress_unrolled};
#ifdef LRS_SHA256_X86
constexpr Sha256Kernel kShaniKernel{"shani", compress_shani};
constexpr Sha256BatchKernel kMb4Kernel{"mb4", 4, compress_batch_mb4};
constexpr Sha256BatchKernel kMb8Kernel{"mb8", 8, compress_batch_mb8};
constexpr Sha256BatchKernel kShaniBatchKernel{"shani", 1,
                                              compress_batch_shani};
#endif

/// Single-stream kernels runnable on this CPU, slowest to fastest.
std::vector<const Sha256Kernel*> runnable_kernels() {
  std::vector<const Sha256Kernel*> v{&kRefKernel, &kUnrolledKernel};
#ifdef LRS_SHA256_X86
  if (__builtin_cpu_supports("sha")) v.push_back(&kShaniKernel);
#endif
  return v;
}

/// Batch kernels runnable on this CPU, slowest to fastest. The multi-buffer
/// lanes beat the scalar kernels for many-message workloads, but dedicated
/// SHA extensions outrun even 8-lane AVX2 (measured ~1.4x on 8x64B), so a
/// loop over SHA-NI ranks above mb8 when the CPU has it.
std::vector<const Sha256BatchKernel*> runnable_batch_kernels() {
  std::vector<const Sha256BatchKernel*> v;
#ifdef LRS_SHA256_X86
  if (__builtin_cpu_supports("sse2")) v.push_back(&kMb4Kernel);
  if (__builtin_cpu_supports("avx2")) v.push_back(&kMb8Kernel);
  if (__builtin_cpu_supports("sha")) v.push_back(&kShaniBatchKernel);
#endif
  return v;
}

const Sha256Kernel* select_auto() { return runnable_kernels().back(); }

const Sha256BatchKernel* select_batch_auto() {
  auto v = runnable_batch_kernels();
  return v.empty() ? nullptr : v.back();
}

struct ActiveKernels {
  std::atomic<const Sha256Kernel*> single;
  std::atomic<const Sha256BatchKernel*> batch;

  ActiveKernels() {
    const Sha256Kernel* chosen = nullptr;
    const char* env = std::getenv("LRS_SHA256_KERNEL");
    const bool overridden =
        env != nullptr && env[0] != '\0' && std::string(env) != "auto";
    if (overridden) {
      chosen = sha256_find_kernel(env);
      if (chosen == nullptr) {
        std::fprintf(stderr,
                     "[WARN] LRS_SHA256_KERNEL=%s unknown or unsupported on "
                     "this CPU; falling back to auto selection\n",
                     env);
      }
    }
    // A pinned scalar kernel also pins batch hashing to it, so sanitizer
    // and A/B runs exercise exactly one implementation.
    const bool pinned =
        chosen != nullptr && chosen != runnable_kernels().back();
    if (chosen == nullptr) chosen = select_auto();
    const Sha256BatchKernel* batch_chosen =
        pinned ? nullptr : select_batch_auto();
    single.store(chosen, std::memory_order_release);
    batch.store(batch_chosen, std::memory_order_release);
  }
};

ActiveKernels& active_kernels() {
  static ActiveKernels a;
  return a;
}

}  // namespace

const Sha256Kernel& sha256_kernel() {
  return *active_kernels().single.load(std::memory_order_acquire);
}

const Sha256BatchKernel* sha256_batch_kernel() {
  return active_kernels().batch.load(std::memory_order_acquire);
}

std::vector<std::string> sha256_available_kernels() {
  std::vector<std::string> names;
  for (const auto* k : runnable_kernels()) names.emplace_back(k->name);
  return names;
}

std::vector<std::string> sha256_available_batch_kernels() {
  std::vector<std::string> names;
  for (const auto* k : runnable_batch_kernels()) names.emplace_back(k->name);
  return names;
}

const Sha256Kernel* sha256_find_kernel(const std::string& name) {
  for (const auto* k : runnable_kernels()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

const Sha256BatchKernel* sha256_find_batch_kernel(const std::string& name) {
  for (const auto* k : runnable_batch_kernels()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

bool sha256_set_kernel(const std::string& name) {
  const Sha256Kernel* k =
      name == "auto" ? select_auto() : sha256_find_kernel(name);
  if (k == nullptr) return false;
  auto& a = active_kernels();
  a.single.store(k, std::memory_order_release);
  // Scalar pins disable the multi-buffer path (see header); the best
  // kernel (or "auto") restores CPUID batch selection.
  const bool pinned = k != runnable_kernels().back();
  a.batch.store(pinned ? nullptr : select_batch_auto(),
                std::memory_order_release);
  return true;
}

}  // namespace lrs::crypto
