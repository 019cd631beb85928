// Runtime-dispatched GF(256) bulk kernels: the addmul/scale/dot inner
// loops behind every erasure encode and decode.
//
// Three implementation tiers are compiled in (availability permitting):
//  * "ref"   — the original branchy log/exp scalar loop. Kept forever as the
//              differential-testing oracle; never removed, never "improved".
//  * "table" — portable fallback: one row of a lazily built 64 KB full
//              multiplication table per coefficient, so the per-byte work is
//              a single load + xor with no branch, unrolled 8 bytes per
//              iteration.
//  * "ssse3" / "avx2" — the classic low/high-nibble pshufb split-table
//              technique (as in ISA-L and Jerasure): two 16-entry product
//              tables per coefficient, 16 or 32 bytes per shuffle step.
//
// `dot` is the fused form of a run of addmuls into one zeroed block, shaped
// like ISA-L's gf_vect_dot_prod: dst = XOR_s coeff[s] * src[s]. "ref" and
// "table" compose it from their own addmul (so "ref" stays the oracle);
// "ssse3" and "avx2" walk dst in strips of up to four vectors, keep the
// strip's accumulators in registers across every source, and store each
// strip once — one pass over dst instead of one read-modify-write per
// source. Encoding a parity block, a syndrome or an erased column is one
// dot call.
//
// The active kernel is chosen once, at first use, by CPUID feature probing
// (best available wins) and can be overridden with the environment variable
// LRS_GF256_KERNEL=ref|table|ssse3|avx2|auto — both for A/B benchmarking and
// for forcing the portable paths under sanitizers. An unknown value prints
// one [WARN] line to stderr and falls back to auto selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lrs::erasure {

/// One GF(256) bulk-arithmetic implementation. All kernels implement
/// identical semantics (verified byte-for-byte by tests/test_gf256_kernels):
///   addmul: dst[i] ^= coeff * src[i]   (no-op when coeff == 0)
///   scale:  dst[i]  = coeff * dst[i]   (zero-fill when coeff == 0)
///   dot:    dst[i]  = XOR over s < count of coeff[s] * src[s][i]
///           (overwrites dst; zero-fill when count == 0; zero coefficients
///           contribute nothing; dst must not overlap any src)
struct Gf256Kernel {
  const char* name;
  void (*addmul)(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                 std::uint8_t coeff);
  void (*scale)(std::uint8_t* dst, std::size_t len, std::uint8_t coeff);
  void (*dot)(std::uint8_t* dst, const std::uint8_t* const* src,
              const std::uint8_t* coeff, std::size_t count, std::size_t len);
};

/// The active kernel. First call performs selection (env override, then
/// CPUID) and logs the choice once.
const Gf256Kernel& gf256_kernel();

/// Kernels compiled in AND runnable on this CPU, fastest last. Always
/// contains at least {"ref", "table"}.
std::vector<std::string> gf256_available_kernels();

/// Looks up a kernel by name; nullptr when unknown or not runnable on this
/// CPU. "auto" is not a kernel name (use gf256_set_kernel for that).
const Gf256Kernel* gf256_find_kernel(const std::string& name);

/// Forces the active kernel ("auto" re-runs CPUID selection). Returns false
/// — leaving the active kernel unchanged — when the name is unknown or the
/// CPU lacks the required ISA. Intended for tests and benchmarks; simulation
/// code should rely on the startup selection.
bool gf256_set_kernel(const std::string& name);

/// The 256x256 full multiplication table (row c holds c*x for x in 0..255),
/// lazily built on first use and shared by the table/SIMD kernels. Exposed
/// so tests can cross-check it against Gf256::mul.
const std::uint8_t* gf256_mul_table();

namespace detail {

/// log values of nonzero elements are <= 254; log[0] gets this sentinel so
/// that exp[log[a] + log[b]] indexes the zeroed tail of exp[] — and thus
/// correctly evaluates to 0 — whenever a or b is 0, instead of the silent
/// `0 * x == x` the old `log[0] = 0` convention produced in unguarded code.
inline constexpr std::uint16_t kLogZeroSentinel = 512;
/// Covers the worst-case index log[0] + log[0] == 1024.
inline constexpr std::size_t kExpSize = 1056;

/// Shared log/exp tables (generator 0x03, AES polynomial 0x11b), used by
/// both the scalar Gf256 entry points and the reference kernel. exp[] is
/// doubled (indices [255,510)) to skip a mod-255 in products and zero-padded
/// beyond so the log[0] sentinel propagates zeros.
struct Gf256Tables {
  std::uint16_t log[256];
  std::uint8_t exp[kExpSize];
};

const Gf256Tables& gf256_tables();

}  // namespace detail

}  // namespace lrs::erasure
