#include "erasure/code.h"

#include <map>
#include <mutex>
#include <tuple>

#include "util/check.h"

namespace lrs::erasure {

namespace {

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
