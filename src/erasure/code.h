// Fixed-rate k-n-k' erasure codes (paper §II-C, §IV-B).
//
// A code transforms k equal-length blocks into n >= k encoded blocks such
// that the originals can be recovered from (almost) any k' encoded blocks.
// LR-Seluge preloads the *same instance* on every node so any node can
// regenerate the exact n packets of a page it has decoded and serve them.
//
// Every codec is one linear code over GF(256): an n x k generator G, where
// encoded block i is sum_j G[i][j] * data_j. Five builders differ only in G
// and in the decode rule they pick:
//  * make_rs_code — Cauchy Reed-Solomon [I_k ; C], MDS: decodable from ANY
//    k blocks (k' == k). Rule kMds.
//  * make_rlc_gf2 / make_rlc_gf256 — random linear codes whose parity rows
//    derive from a public seed: 0/1 coefficients (an XOR-only code) or
//    random bytes (near-MDS). Decoding succeeds once the received rows reach
//    rank k; the nominal k' (k + delta) is what the protocol advertises in
//    SNACK distance math. Rule kRank.
//  * make_lrc_code — pyramid-style Locally Repairable Code: the k data
//    blocks split into g local groups, each protected by one local parity,
//    plus global Cauchy parities. A single erasure inside a group repairs
//    from the group alone (no k-wide solve); any k + g - 1 blocks decode
//    deterministically (weaker than MDS — see lrc_code.cc). Rule kRank.
//  * make_lt_code — fixed-rate LT code: every row XORs a robust-soliton
//    number of blocks, the genuinely probabilistic k' > k case; not
//    systematic. Rule kPeel.
// Encode copies each unit row's block and computes every other block as one
// fused GF(256) dot. Decode deduplicates the shares, peels (a row with one
// unknown column solves it: a systematic data share is placed, an LRC local
// parity repairs its group, an LT packet releases its block) and then, for
// kMds and kRank, solves the columns still unknown through the e x e minor
// of the remaining rows, ~e*k block multiply-adds (erased_solve.h).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "erasure/erased_solve.h"
#include "erasure/matrix.h"
#include "util/types.h"

namespace lrs::stats {
class Counter;
class Timer;
}  // namespace lrs::stats

namespace lrs::erasure {

/// One received encoded block: its index in [0, n) plus a view of its
/// bytes, which the caller keeps alive for the decode call. The bytes may
/// lie anywhere — a receive buffer, a spare buffer, or, for a systematic
/// codec's data share, its own slot of decode()'s output (see decode()).
struct Share {
  std::size_t index;
  ByteView data;
};

/// Which received rows a decode uses, and whether it may solve.
enum class DecodeRule {
  /// The first k distinct shares in arrival order; they always decode, so
  /// a failed solve is a bug ("MDS property violated").
  kMds,
  /// Every distinct share; rows the peel leaves go to the solve in index
  /// order. Decodes exactly when the received rows reach rank k.
  kRank,
  /// Every distinct share, peeling only: decodes exactly when the peel
  /// recovers every column.
  kPeel,
};

/// The linear code behind every codec. It works on contiguous, caller-owned
/// pages (the caller-owned block idiom of production codec libraries): a
/// page of k blocks of `len` bytes is one buffer of k * len bytes with block
/// j at [j * len, (j+1) * len), and encoded blocks lie back to back the same
/// way. The block length is implied by the buffer sizes. A code is
/// immutable after construction and shared across threads; per-call scratch
/// is thread-local, so a warm decode performs no heap allocation.
///
/// `name` is the codec spelling. It keys the erasure.<name>.{encode,decode}
/// timers and the decode-path counters erasure.<name>.{decodes,
/// local_repairs,local_only_decodes,full_solves} (sim/stats/stats.h; only
/// while stats::enabled()): successful decodes, columns recovered by
/// peeling a row with more than a copy's work, and successful decodes that
/// finished by peeling alone or needed the solve.
class ErasureCode {
 public:
  /// `generator` is n x k with n >= k >= 1; `threshold` is
  /// decode_threshold(), k <= threshold <= n.
  ErasureCode(std::string name, MatrixGf256 generator, std::size_t threshold,
              DecodeRule rule);

  std::size_t k() const { return generator_.cols(); }
  std::size_t n() const { return generator_.rows(); }
  /// Nominal decode threshold k': the number of distinct encoded blocks
  /// after which decode() succeeds (always, for MDS codes; with high
  /// probability otherwise). k <= k' <= n.
  std::size_t decode_threshold() const { return threshold_; }
  const std::string& name() const { return name_; }

  /// Encodes the k blocks of `data` (k * len bytes) into the n blocks of
  /// `out` (n * len bytes). Systematic codes write the originals as the
  /// first k outputs. `out` must not overlap `data`.
  void encode(ByteView data, MutByteView out) const;

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
  bool decode(std::span<const Share> shares, MutByteView out) const;

  /// Vector-of-blocks forms for tests and benches: each copies into and out
  /// of one contiguous buffer around a single call of the form above.
  /// encode() needs k blocks of one length; decode() takes the block length
  /// from the first share and returns nullopt where the other returns false.
  std::vector<Bytes> encode(const std::vector<Bytes>& blocks) const;
  std::optional<std::vector<Bytes>> decode(
      std::span<const Share> shares) const;

 private:
  std::string name_;
  MatrixGf256 generator_;
  RowSupports supports_;
  std::size_t threshold_;
  DecodeRule rule_;
  bool peels_;  // some row that is not a copy can take part in the peel
  stats::Timer& encode_timer_;
  stats::Timer& decode_timer_;
  stats::Counter& decodes_;
  stats::Counter& local_repairs_;
  stats::Counter& local_only_decodes_;
  stats::Counter& full_solves_;
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
/// probabilistic decode threshold — the paper's "k' > k" archetype. The
/// full set of n blocks always peels.
std::unique_ptr<ErasureCode> make_lt_code(std::size_t k, std::size_t n,
                                          std::size_t delta,
                                          std::uint64_t seed);

/// Pyramid-style Locally Repairable Code; requires k <= n <= 255. The k data
/// blocks split into lrc_group_count(k, n) groups, each with one local
/// parity; the remaining parities are global Cauchy rows. Deterministic
/// decode from any k + g - 1 blocks (k' == k + g - 1); a single missing data
/// block whose group parity survived repairs from its group alone, which
/// the erasure.lrc.local_repairs counter records.
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
