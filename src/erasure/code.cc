#include "erasure/code.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "erasure/gf256.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::erasure {

namespace {

stats::Timer& codec_timer(const std::string& name, const char* op) {
  return stats::Registry::instance().timer("erasure." + name + "." + op);
}

stats::Counter& codec_counter(const std::string& name, const char* path) {
  return stats::Registry::instance().counter("erasure." + name + "." + path);
}

/// Per-thread decode working set; vectors keep their capacity between
/// calls, so a warm decode does not touch the heap.
struct DecodeScratch {
  std::vector<const std::uint8_t*> by_row;  // first block of each index
  std::vector<std::size_t> rows;            // rows taken, then the leftovers
  std::vector<std::uint8_t> known;          // per column, set by the peel
  std::vector<PeelStep> steps;              // the peel, in firing order
  std::vector<const std::uint8_t*> block;   // where each column's block lies
  std::vector<const std::uint8_t*> srcs;    // dot sources
  Bytes coeffs;                             // dot coefficients
  std::vector<ParityShare> parity;          // the solve's candidates
};

DecodeScratch& decode_scratch() {
  thread_local DecodeScratch s;
  return s;
}

/// Where a zero-length block points: an empty view may carry a null
/// pointer, and a null block means an unknown column.
constexpr std::uint8_t kEmptyBlock = 0;

/// The `count` consecutive `len`-byte blocks of `buf`, as owned copies.
std::vector<Bytes> split_blocks(const Bytes& buf, std::size_t count,
                                std::size_t len) {
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto first = buf.begin() + static_cast<std::ptrdiff_t>(i * len);
    blocks.emplace_back(first, first + static_cast<std::ptrdiff_t>(len));
  }
  return blocks;
}

}  // namespace

ErasureCode::ErasureCode(std::string name, MatrixGf256 generator,
                         std::size_t threshold, DecodeRule rule)
    : name_(std::move(name)),
      generator_(std::move(generator)),
      supports_(generator_),
      threshold_(threshold),
      rule_(rule),
      peels_(false),
      encode_timer_(codec_timer(name_, "encode")),
      decode_timer_(codec_timer(name_, "decode")),
      decodes_(codec_counter(name_, "decodes")),
      local_repairs_(codec_counter(name_, "local_repairs")),
      local_only_decodes_(codec_counter(name_, "local_only_decodes")),
      full_solves_(codec_counter(name_, "full_solves")) {
  LRS_CHECK(k() >= 1 && k() <= n());
  LRS_CHECK(threshold_ >= k() && threshold_ <= n());
  for (std::size_t r = 0; r < n(); ++r) {
    peels_ |= supports_.copies(r) == RowSupports::kNoCopy &&
              (rule_ == DecodeRule::kPeel || supports_.row(r).size() < k());
  }
}

void ErasureCode::encode(ByteView data, MutByteView out) const {
  stats::TimerScope scope(encode_timer_);
  const std::size_t k = this->k(), n = this->n();
  LRS_CHECK(data.size() % k == 0);
  const std::size_t len = data.size() / k;
  LRS_CHECK(out.size() == n * len);
  if (len == 0) return;
  thread_local std::vector<const std::uint8_t*> srcs;
  srcs.resize(k);
  for (std::size_t j = 0; j < k; ++j) srcs[j] = data.data() + j * len;
  // A systematic code's leading unit rows copy the page in one go.
  std::size_t r = 0;
  while (r < n && supports_.copies(r) == r) ++r;
  std::copy_n(data.begin(), r * len, out.begin());
  for (; r < n; ++r) {
    const MutByteView block = out.subspan(r * len, len);
    const std::size_t c = supports_.copies(r);
    if (c != RowSupports::kNoCopy) {
      const ByteView src = data.subspan(c * len, len);
      std::copy(src.begin(), src.end(), block.begin());
    } else {
      // Zero coefficients are skipped inside the kernel.
      Gf256::dot(block, srcs, generator_.row(r));
    }
  }
}

bool ErasureCode::decode(std::span<const Share> shares,
                         MutByteView out) const {
  stats::TimerScope scope(decode_timer_);
  const std::size_t k = this->k(), n = this->n();
  LRS_CHECK(out.size() % k == 0);
  const std::size_t len = out.size() / k;
  DecodeScratch& sc = decode_scratch();

  // Deduplicate by index: the first copy of an index counts. kMds takes the
  // first k distinct shares in arrival order: the parity shares among them
  // are exactly as many as the erased columns, and every such minor is
  // invertible. The other rules take every distinct share. A unit row's
  // share is its column's block (a data share may already sit in its slot
  // of `out`, and is used in place); the other rows are left for the peel
  // and the solve, in arrival order under kMds and in index order
  // otherwise.
  sc.by_row.assign(n, nullptr);
  sc.block.assign(k, nullptr);
  sc.rows.clear();
  const std::uint8_t** const by_row = sc.by_row.data();
  const std::uint8_t** const block = sc.block.data();
  std::size_t distinct = 0, placed = 0;
  for (const auto& s : shares) {
    LRS_CHECK(s.index < n);
    if (by_row[s.index] != nullptr) continue;
    LRS_CHECK(s.data.size() == len);
    const std::uint8_t* data = len == 0 ? &kEmptyBlock : s.data.data();
    by_row[s.index] = data;
    const std::size_t c = supports_.copies(s.index);
    if (c != RowSupports::kNoCopy) {
      if (block[c] == nullptr) {
        block[c] = data;
        ++placed;
      }
    } else if (rule_ == DecodeRule::kMds) {
      sc.rows.push_back(s.index);
    }
    if (++distinct == k && rule_ == DecodeRule::kMds) break;
  }
  if (distinct < k) return false;
  if (rule_ != DecodeRule::kMds) {
    for (std::size_t r = 0; r < n; ++r) {
      if (by_row[r] != nullptr && supports_.copies(r) == RowSupports::kNoCopy)
        sc.rows.push_back(r);
    }
  }

  // Peel, then replay its steps over the blocks: each writes its column's
  // slot of `out` with one dot, the inverse of the column's coefficient
  // folded into every term.
  std::size_t recovered = placed;
  sc.steps.clear();
  if (recovered < k && peels_) {
    sc.known.resize(k);
    for (std::size_t j = 0; j < k; ++j) sc.known[j] = block[j] != nullptr;
    recovered = peel(supports_, rule_ != DecodeRule::kPeel, sc.rows, sc.known,
                     sc.steps);
  }
  if (rule_ == DecodeRule::kPeel && recovered < k) return false;
  for (const auto& [r, c] : sc.steps) {
    const std::uint8_t inv = Gf256::inv(generator_.at(r, c));
    sc.srcs.assign(1, by_row[r]);
    sc.coeffs.assign(1, inv);
    for (const std::uint32_t j : supports_.row(r)) {
      if (j == c) continue;
      sc.srcs.push_back(block[j]);
      sc.coeffs.push_back(Gf256::mul(inv, generator_.at(r, j)));
    }
    const MutByteView slot = out.subspan(c * len, len);
    Gf256::dot(slot, sc.srcs, sc.coeffs);
    block[c] = len == 0 ? &kEmptyBlock : slot.data();
  }
  local_repairs_.add(sc.steps.size());

  // Solve the columns still unknown from the rows the peel left, in the
  // rule's order; the solve also places the known blocks not yet in their
  // slots, and with nothing left unknown it only places them.
  sc.parity.clear();
  if (recovered < k) {
    for (const std::size_t r : sc.rows)
      sc.parity.push_back({r, by_row[r]});
  }
  const bool solved = solve_erased_columns(generator_, sc.block, sc.parity, out);
  LRS_CHECK_MSG(solved || rule_ != DecodeRule::kMds,
                "MDS property violated (bug)");
  if (!solved) return false;
  decodes_.add();
  (recovered == k ? local_only_decodes_ : full_solves_).add();
  return true;
}

std::vector<Bytes> ErasureCode::encode(const std::vector<Bytes>& blocks) const {
  LRS_CHECK(blocks.size() == k());
  const std::size_t len = blocks.front().size();
  Bytes data;
  data.reserve(k() * len);
  for (const auto& b : blocks) {
    LRS_CHECK(b.size() == len);
    data.insert(data.end(), b.begin(), b.end());
  }
  Bytes out(n() * len);
  encode(view(data), out);
  return split_blocks(out, n(), len);
}

std::optional<std::vector<Bytes>> ErasureCode::decode(
    std::span<const Share> shares) const {
  const std::size_t len = shares.empty() ? 0 : shares.front().data.size();
  Bytes out(k() * len);
  if (!decode(shares, out)) return std::nullopt;
  return split_blocks(out, k(), len);
}

std::optional<CodecKind> parse_codec_kind(const std::string& name) {
  if (name == "rs") return CodecKind::kReedSolomon;
  if (name == "rlc2") return CodecKind::kRlcGf2;
  if (name == "rlc256") return CodecKind::kRlcGf256;
  if (name == "lt") return CodecKind::kLt;
  if (name == "lrc") return CodecKind::kLrc;
  return std::nullopt;
}

bool codec_is_systematic(CodecKind kind) { return kind != CodecKind::kLt; }

const char* codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kReedSolomon: return "rs";
    case CodecKind::kRlcGf2: return "rlc2";
    case CodecKind::kRlcGf256: return "rlc256";
    case CodecKind::kLt: return "lt";
    case CodecKind::kLrc: return "lrc";
  }
  return "?";
}

std::unique_ptr<ErasureCode> make_code(CodecKind kind, std::size_t k,
                                       std::size_t n, std::size_t delta,
                                       std::uint64_t seed) {
  switch (kind) {
    case CodecKind::kReedSolomon:
      return make_rs_code(k, n);
    case CodecKind::kRlcGf2:
      return make_rlc_gf2(k, n, delta, seed);
    case CodecKind::kRlcGf256:
      return make_rlc_gf256(k, n, delta, seed);
    case CodecKind::kLt:
      return make_lt_code(k, n, delta, seed);
    case CodecKind::kLrc:
      return make_lrc_code(k, n);
  }
  return nullptr;
}

namespace {

using CacheKey =
    std::tuple<CodecKind, std::size_t, std::size_t, std::size_t,
               std::uint64_t>;

struct CodecCache {
  std::mutex mu;
  std::map<CacheKey, std::shared_ptr<const ErasureCode>> entries;
};

CodecCache& codec_cache() {
  static CodecCache c;
  return c;
}

}  // namespace

std::shared_ptr<const ErasureCode> make_code_cached(CodecKind kind,
                                                    std::size_t k,
                                                    std::size_t n,
                                                    std::size_t delta,
                                                    std::uint64_t seed) {
  if (kind == CodecKind::kReedSolomon || kind == CodecKind::kLrc) {
    // These constructions ignore delta and seed; canonicalize so all
    // spellings share one generator matrix.
    delta = 0;
    seed = 0;
  }
  const CacheKey key{kind, k, n, delta, seed};
  auto& cache = codec_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) return it->second;
  }
  // Build outside the lock — generator construction is the expensive part
  // the cache exists to amortize. A racing builder loses to try_emplace.
  std::shared_ptr<const ErasureCode> built =
      make_code(kind, k, n, delta, seed);
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.entries.try_emplace(key, std::move(built)).first->second;
}

std::size_t codec_cache_size() {
  auto& cache = codec_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.entries.size();
}

void codec_cache_clear() {
  auto& cache = codec_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
}

}  // namespace lrs::erasure
