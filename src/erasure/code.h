// Fixed-rate k-n-k' erasure codes (paper §II-C, §IV-B).
//
// A code transforms k equal-length blocks into n >= k encoded blocks such
// that the originals can be recovered from (almost) any k' encoded blocks.
// LR-Seluge preloads the *same instance* on every node so any node can
// regenerate the exact n packets of a page it has decoded and serve them.
//
// Three families are provided:
//  * The systematic linear code over GF(256) (erased_solve.h): one class
//    behind three generators. make_rs_code builds a Cauchy-matrix
//    Reed-Solomon generator, MDS: decodable from ANY k blocks (k' == k).
//    make_rlc_gf2 and make_rlc_gf256 build random linear codes whose parity
//    rows derive from a public seed, 0/1 coefficients (an XOR-only code) or
//    random bytes (near-MDS); decoding succeeds once the received rows reach
//    rank k, and the nominal k' (k + delta) is what the protocol advertises
//    in SNACK distance math. Encode is one fused GF(256) dot per parity
//    block; decode is one dot per syndrome and per erased data column, ~e*k
//    block multiply-adds for e erased data blocks.
//  * LtCode — fixed-rate LT code (robust soliton degrees, peeling decoder):
//    the genuinely probabilistic k' > k case.
//  * LrcCode — pyramid-style Locally Repairable Code: the k data blocks
//    split into g local groups, each protected by one local parity, plus
//    global Cauchy parities. A single erasure inside a group repairs from
//    the group alone (no k-wide solve); any k + g - 1 blocks decode
//    deterministically (weaker than MDS — see lrc_code.cc). Decode costs
//    one dot over the group per local repair, written straight into the
//    output page, then ~e*k block multiply-adds for the e data blocks
//    still erased (erased_solve.h).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace lrs::erasure {

/// One received encoded block: its index in [0, n) plus a view of its
/// bytes, which the caller keeps alive for the decode call. The bytes may
/// lie anywhere — a receive buffer, a spare buffer, or, for a systematic
/// codec's data share, its own slot of decode()'s output (see decode()).
struct Share {
  std::size_t index;
  ByteView data;
};

/// Every codec works on contiguous, caller-owned pages (the caller-owned
/// block idiom of production codec libraries): a page of k blocks of `len`
/// bytes is one buffer of k * len bytes with block j at [j * len, (j+1) *
/// len), and encoded blocks lie back to back the same way. The block length
/// is implied by the buffer sizes. Codecs are immutable after construction
/// and shared across threads; per-call scratch is thread-local, so a warm
/// decode of every systematic codec (RS, RLC, LRC) performs no heap
/// allocation.
class ErasureCode {
 public:
  virtual ~ErasureCode() = default;

  virtual std::size_t k() const = 0;
  virtual std::size_t n() const = 0;
  /// Nominal decode threshold k': the number of distinct encoded blocks
  /// after which decode() succeeds (always, for MDS codes; with high
  /// probability otherwise). k <= k' <= n.
  virtual std::size_t decode_threshold() const = 0;

  /// Encodes the k blocks of `data` (k * len bytes) into the n blocks of
  /// `out` (n * len bytes). Systematic codes write the originals as the
  /// first k outputs. `out` must not overlap `data`.
  virtual void encode(ByteView data, MutByteView out) const = 0;

  /// Recovers the k original blocks into `out` (k * len bytes; every share
  /// must be len bytes) from a subset of encoded blocks, taken in the order
  /// given. Duplicate indices are tolerated and ignored. Returns false when
  /// the subset is insufficient (the protocol keeps requesting); `out` is
  /// then unspecified, except as below.
  ///
  /// Shares may alias `out` in one way only: when the codec is systematic
  /// (codec_is_systematic), a data share (index < k) may already sit in its
  /// own slot of `out`, block `index`. The result is then the same as from
  /// a detached copy of that share, that slot is not rewritten, and a
  /// failed decode leaves it unchanged — so a receiver can store data shares
  /// straight into the page they decode into and retry after more arrive.
  /// No share may overlap any other part of `out`.
  virtual bool decode(std::span<const Share> shares, MutByteView out) const = 0;

  /// Vector-of-blocks forms for tests and benches: each copies into and out
  /// of one contiguous buffer around a single call of the virtual above.
  /// encode() needs k blocks of one length; decode() takes the block length
  /// from the first share and returns nullopt where the virtual returns
  /// false.
  std::vector<Bytes> encode(const std::vector<Bytes>& blocks) const;
  std::optional<std::vector<Bytes>> decode(
      std::span<const Share> shares) const;

  virtual std::string name() const = 0;
};

/// MDS Reed-Solomon instance; requires k <= n <= 255.
std::unique_ptr<ErasureCode> make_rs_code(std::size_t k, std::size_t n);

/// GF(2) random linear code; `delta` is the nominal decode overhead
/// (k' = k + delta). Parity rows derive from `seed` so all nodes agree.
std::unique_ptr<ErasureCode> make_rlc_gf2(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed);

/// GF(256) random linear code; near-MDS (failure prob ~2^-8 per extra
/// block), nominal k' = k + delta (delta may be 0).
std::unique_ptr<ErasureCode> make_rlc_gf256(std::size_t k, std::size_t n,
                                            std::size_t delta,
                                            std::uint64_t seed);

/// Fixed-rate LT code (robust soliton degrees, peeling decoder); genuinely
/// probabilistic decode threshold — the paper's "k' > k" archetype.
std::unique_ptr<ErasureCode> make_lt_code(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed);

/// Pyramid-style Locally Repairable Code; requires k <= n <= 255. The k data
/// blocks split into lrc_group_count(k, n) groups, each with one local
/// parity; the remaining parities are global Cauchy rows. Deterministic
/// decode from any k + g - 1 blocks (k' == k + g - 1); a single missing data
/// block whose group parity survived repairs from its group alone. Every
/// LRC instance counts its decode paths in the registry counters
/// "erasure.lrc.{decodes,local_repairs,local_only_decodes,full_solves}"
/// (sim/stats/stats.h; only while stats::enabled()).
std::unique_ptr<ErasureCode> make_lrc_code(std::size_t k, std::size_t n);

/// Number of local parity groups the LRC construction uses for (k, n): the
/// largest divisor of k that is <= (n - k) / 2, or 0 when n - k < 2 (too few
/// parities for locality to pay — all parities are plain global RS rows).
std::size_t lrc_group_count(std::size_t k, std::size_t n);

enum class CodecKind { kReedSolomon, kRlcGf2, kRlcGf256, kLt, kLrc };

/// Whether encoded block i < k of `kind` is data block i itself (every kind
/// but LT). Only then may a data share sit in its own slot of decode()'s
/// `out`.
bool codec_is_systematic(CodecKind kind);

/// Parses "rs", "rlc2", "rlc256", "lt", "lrc" — used by example/bench CLI
/// flags and scenario files. nullopt for any other spelling.
std::optional<CodecKind> parse_codec_kind(const std::string& name);
/// The spelling parse_codec_kind accepts for `kind`.
const char* codec_kind_name(CodecKind kind);
std::unique_ptr<ErasureCode> make_code(CodecKind kind, std::size_t k,
                                       std::size_t n, std::size_t delta,
                                       std::uint64_t seed);

/// Process-wide cache of immutable codec instances keyed by
/// (kind, k, n, delta, seed). LR-Seluge preloads the *same* code instance on
/// every node, so all receivers of a simulation — and every page and Monte
/// Carlo trial of the bench harnesses — can share one generator matrix
/// instead of rebuilding the Cauchy/RLC construction per node. Codecs are
/// deterministic and stateless after construction, hence safe to share.
/// Seed-independent kinds (Reed-Solomon, LRC) canonicalize delta/seed in
/// the key, so all spellings share one instance.
/// Thread-safe; entries live for the process lifetime (a handful of small
/// matrices).
std::shared_ptr<const ErasureCode> make_code_cached(CodecKind kind,
                                                    std::size_t k,
                                                    std::size_t n,
                                                    std::size_t delta,
                                                    std::uint64_t seed);

/// Number of distinct codec instances currently cached.
std::size_t codec_cache_size();

/// Drops every cached codec (outstanding shared_ptrs stay valid). For tests.
void codec_cache_clear();

}  // namespace lrs::erasure
