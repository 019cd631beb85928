// Microbenchmarks for the erasure-coding substrate: GF(256) inner loops
// across every dispatched kernel and full-page encode/decode for the paper's
// geometry (k=32, n=48, 64-byte blocks) — the per-page computational price
// of loss resilience.
//
// Besides the google-benchmark console table, the binary runs a self-timed
// sweep of kernels x (k, n, payload) and writes machine-readable results to
// BENCH_micro_erasure.json (override the path with LRS_BENCH_JSON, skip with
// LRS_BENCH_JSON=none) so successive PRs have a perf trajectory to track.
// The sweep also covers the LRC backend: encode/decode per geometry, the
// local-repair fast path, RS/LRC decode against the number of erased data
// blocks, and Monte Carlo local-repair hit rates at the Fig. 6 loss points.
// The star20/ rows pin the paper cell's hot calls under the active kernel:
// contiguous RS encode, decode with 3 and 8 erasures — from detached shares
// and with the data shares already in their own slot of the output page, as
// an LR-Seluge receiver stores them — and the fused dot against the addmul
// loop it replaced. Every codec row encodes and decodes through
// the contiguous caller-owned buffer API into buffers allocated once,
// outside the timing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/common.h"
#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/gf256_kernels.h"
#include "sim/stats/stats.h"
#include "util/rng.h"

namespace {

using namespace lrs;
using namespace lrs::erasure;
using bench::SweepResult;
using bench::time_op;

std::vector<Bytes> random_blocks(std::size_t k, std::size_t len,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(len);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return blocks;
}

/// `blocks` laid back to back: the contiguous page the codecs read.
Bytes join(const std::vector<Bytes>& blocks) {
  Bytes page;
  for (const auto& b : blocks) page.insert(page.end(), b.begin(), b.end());
  return page;
}

/// A codec's contiguous encode/decode operands for one page, allocated once.
struct Page {
  Page(const ErasureCode& code, std::size_t len, std::uint64_t seed)
      : blocks(random_blocks(code.k(), len, seed)),
        data(join(blocks)),
        encoded(code.n() * len),
        decoded(code.k() * len),
        len(len) {
    code.encode(view(data), encoded);
  }
  /// Encoded block i as a share: a view into `encoded`.
  Share share(std::size_t i) const {
    return {i, view(encoded).subspan(i * len, len)};
  }
  /// Whether `decoded` holds the original page.
  bool decoded_ok() const { return decoded == data; }

  std::vector<Bytes> blocks;
  Bytes data, encoded, decoded;
  std::size_t len;
};

// ---------------------------------------------------------------------------
// google-benchmark table: per-kernel addmul plus codec-level encode/decode.
// ---------------------------------------------------------------------------

void BM_Gf256Addmul(benchmark::State& state, const std::string& kernel_name,
                    std::size_t len) {
  const Gf256Kernel* kernel = gf256_find_kernel(kernel_name);
  if (kernel == nullptr) {
    state.SkipWithError("kernel unavailable on this CPU");
    return;
  }
  Bytes dst(len, 3), src(len, 7);
  for (auto _ : state) {
    kernel->addmul(dst.data(), src.data(), len, 0x8e);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void encode_bench(benchmark::State& state, CodecKind kind,
                  std::size_t delta) {
  auto code = make_code(kind, 32, 48, delta, 42);
  Page page(*code, 64, 2);
  for (auto _ : state) {
    code->encode(view(page.data), page.encoded);
    benchmark::DoNotOptimize(page.encoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * 64);
}

void decode_bench(benchmark::State& state, CodecKind kind,
                  std::size_t delta) {
  auto code = make_code(kind, 32, 48, delta, 42);
  Page page(*code, 64, 3);
  // Worst-ish case: all parity-heavy tail shares.
  std::vector<Share> shares;
  const std::size_t take = code->decode_threshold() + 2;
  for (std::size_t i = 0; i < take; ++i)
    shares.push_back(page.share(48 - 1 - i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code->decode(shares, page.decoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * 64);
}

void BM_RsEncode(benchmark::State& s) { encode_bench(s, CodecKind::kReedSolomon, 0); }
void BM_RsDecode(benchmark::State& s) { decode_bench(s, CodecKind::kReedSolomon, 0); }
void BM_Rlc2Encode(benchmark::State& s) { encode_bench(s, CodecKind::kRlcGf2, 2); }
void BM_Rlc2Decode(benchmark::State& s) { decode_bench(s, CodecKind::kRlcGf2, 2); }
void BM_Rlc256Encode(benchmark::State& s) { encode_bench(s, CodecKind::kRlcGf256, 1); }
void BM_Rlc256Decode(benchmark::State& s) { decode_bench(s, CodecKind::kRlcGf256, 1); }
void BM_LrcEncode(benchmark::State& s) { encode_bench(s, CodecKind::kLrc, 0); }
void BM_LrcDecode(benchmark::State& s) { decode_bench(s, CodecKind::kLrc, 0); }

BENCHMARK(BM_RsEncode);
BENCHMARK(BM_RsDecode);
BENCHMARK(BM_Rlc2Encode);
BENCHMARK(BM_Rlc2Decode);
BENCHMARK(BM_Rlc256Encode);
BENCHMARK(BM_Rlc256Decode);
BENCHMARK(BM_LrcEncode);
BENCHMARK(BM_LrcDecode);

void BM_LrcLocalRepairDecode(benchmark::State& state) {
  // The cheap path the LRC exists for: one data block missing, its group's
  // local parity present — repair touches 5 blocks instead of a 32-wide
  // solve.
  auto code = make_lrc_code(32, 48);
  Page page(*code, 64, 5);
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 32; ++i)
    if (i != 6) shares.push_back(page.share(i));
  shares.push_back(page.share(32 + 1));  // local parity of group 1
  for (auto _ : state) {
    benchmark::DoNotOptimize(code->decode(shares, page.decoded));
  }
}
BENCHMARK(BM_LrcLocalRepairDecode);

void BM_SystematicFastPathDecode(benchmark::State& state) {
  auto code = make_rs_code(32, 48);
  Page page(*code, 64, 4);
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 32; ++i) shares.push_back(page.share(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code->decode(shares, page.decoded));
  }
}
BENCHMARK(BM_SystematicFastPathDecode);

void BM_CodecCacheHit(benchmark::State& state) {
  make_code_cached(CodecKind::kReedSolomon, 32, 48, 0, 0);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_code_cached(CodecKind::kReedSolomon, 32, 48, 0, 0));
  }
}
BENCHMARK(BM_CodecCacheHit);

void BM_CodecConstructUncached(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_rs_code(32, 48));
  }
}
BENCHMARK(BM_CodecConstructUncached);

void register_kernel_benchmarks() {
  for (const auto& name : gf256_available_kernels()) {
    for (std::size_t len : {64u, 1024u}) {
      const std::string bench_name =
          "BM_Gf256Addmul/kernel=" + name + "/len=" + std::to_string(len);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [name, len](benchmark::State& s) { BM_Gf256Addmul(s, name, len); });
    }
  }
}

// ---------------------------------------------------------------------------
// Self-timed JSON sweep: kernels x (k, n, payload) -> BENCH_micro_erasure.json
// ---------------------------------------------------------------------------

struct SweepConfig {
  std::size_t k, n, payload;
};

std::vector<SweepResult> run_sweep() {
  std::vector<SweepResult> results;
  const SweepConfig configs[] = {
      {32, 48, 64},    // the paper's page geometry
      {16, 24, 32},    // small pages / page-0-like
      {64, 128, 256},  // scaled-up workload
  };
  const std::string active = gf256_kernel().name;
  for (const auto& name : gf256_available_kernels()) {
    if (!gf256_set_kernel(name)) continue;
    const Gf256Kernel* kernel = gf256_find_kernel(name);

    // Raw addmul at a few buffer sizes.
    for (std::size_t len : {64u, 256u, 4096u}) {
      Bytes dst(len, 3), src(len, 7);
      results.push_back(time_op(
          "gf256_addmul/kernel=" + name + "/len=" + std::to_string(len), len,
          [&] {
            kernel->addmul(dst.data(), src.data(), len, 0x8e);
            benchmark::DoNotOptimize(dst.data());
          }));
    }

    // Full RS encode + parity-heavy decode per geometry.
    for (const auto& cfg : configs) {
      const std::string suffix = "/kernel=" + name +
                                 "/k=" + std::to_string(cfg.k) +
                                 "/n=" + std::to_string(cfg.n) +
                                 "/len=" + std::to_string(cfg.payload);
      auto code = make_rs_code(cfg.k, cfg.n);
      Page page(*code, cfg.payload, 2);
      const std::size_t page_bytes = cfg.k * cfg.payload;
      results.push_back(time_op("rs_encode" + suffix, page_bytes, [&] {
        code->encode(view(page.data), page.encoded);
        benchmark::DoNotOptimize(page.encoded.data());
      }));

      std::vector<Share> shares;
      for (std::size_t i = 0; i < cfg.k; ++i)
        shares.push_back(page.share(cfg.n - 1 - i));
      results.push_back(time_op("rs_decode" + suffix, page_bytes, [&] {
        benchmark::DoNotOptimize(code->decode(shares, page.decoded));
      }));
    }
  }
  gf256_set_kernel(active);
  return results;
}

/// LRC rows: encode/decode per geometry under the active kernel and the
/// local-repair fast path. These run once (not per kernel): LRC's hot loops
/// go through the same dispatched kernels as RS, which the kernel sweep
/// already covers.
void append_codec_sweep(std::vector<SweepResult>& results) {
  const SweepConfig configs[] = {
      {32, 48, 64},
      {16, 24, 32},
      {64, 128, 256},
  };
  for (const auto& cfg : configs) {
    const std::string suffix = "/k=" + std::to_string(cfg.k) +
                               "/n=" + std::to_string(cfg.n) +
                               "/len=" + std::to_string(cfg.payload);
    auto code = make_lrc_code(cfg.k, cfg.n);
    Page page(*code, cfg.payload, 2);
    const std::size_t page_bytes = cfg.k * cfg.payload;
    results.push_back(time_op("lrc_encode" + suffix, page_bytes, [&] {
      code->encode(view(page.data), page.encoded);
      benchmark::DoNotOptimize(page.encoded.data());
    }));

    // Parity-heavy decode at the codec's own threshold.
    std::vector<Share> shares;
    for (std::size_t i = 0; i < code->decode_threshold(); ++i)
      shares.push_back(page.share(cfg.n - 1 - i));
    results.push_back(time_op("lrc_decode" + suffix, page_bytes, [&] {
      benchmark::DoNotOptimize(code->decode(shares, page.decoded));
    }));
  }

  // LRC local-repair fast path at the paper geometry: one erased data block
  // repaired from its group alone.
  {
    auto code = make_lrc_code(32, 48);
    Page page(*code, 64, 5);
    std::vector<Share> shares;
    for (std::size_t i = 0; i < 32; ++i)
      if (i != 6) shares.push_back(page.share(i));
    shares.push_back(page.share(32 + 1));
    results.push_back(
        time_op("lrc_decode_local_repair/k=32/n=48/len=64", 32 * 64, [&] {
          benchmark::DoNotOptimize(code->decode(shares, page.decoded));
        }));
  }
}

/// Decode cost against the number of erased data blocks E at the paper
/// geometry. The lost columns are the first E of one fixed random column
/// permutation (so each pattern contains the smaller ones); RS holds the
/// other data blocks plus the last E parity blocks (exactly k shares), LRC
/// the other data blocks plus every parity block. Decode work grows with E
/// (erased-column solve; LRC first repairs lone group erasures locally).
/// E = 16 is past LRC's guaranteed threshold k' = 39: permutation seed 1 is
/// one whose 16 columns LRC can still solve (not every 16-column set is).
void append_erased_sweep(std::vector<SweepResult>& results) {
  const std::size_t k = 32, n = 48, len = 64;
  std::vector<std::size_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(1);
  for (std::size_t i = 0; i < k; ++i)
    std::swap(perm[i], perm[i + rng.uniform(k - i)]);
  const struct {
    CodecKind kind;
    const char* name;
  } codecs[] = {
      {CodecKind::kReedSolomon, "rs"},
      {CodecKind::kLrc, "lrc"},
  };
  for (const auto& c : codecs) {
    auto code = make_code(c.kind, k, n, 0, 0);
    Page page(*code, len, 7);
    for (std::size_t erased : {1u, 3u, 8u, 16u}) {
      std::vector<bool> lost(k, false);
      for (std::size_t i = 0; i < erased; ++i) lost[perm[i]] = true;
      std::vector<Share> shares;
      for (std::size_t j = 0; j < k; ++j)
        if (!lost[j]) shares.push_back(page.share(j));
      const std::size_t parity =
          c.kind == CodecKind::kReedSolomon ? erased : n - k;
      for (std::size_t i = 0; i < parity; ++i)
        shares.push_back(page.share(n - 1 - i));
      if (!code->decode(shares, page.decoded) || !page.decoded_ok()) {
        std::cerr << c.name << " decode failed at erased=" << erased << "\n";
        std::exit(1);
      }
      const std::string name = std::string(c.name) + "_decode/erased=" +
                               std::to_string(erased) + "/k=32/n=48/len=64";
      results.push_back(time_op(name, k * len, [&] {
        benchmark::DoNotOptimize(code->decode(shares, page.decoded));
      }));
    }
  }
}

/// Monte Carlo local-repair hit rate: i.i.d. packet loss at the Fig. 6
/// points, decode from the survivors, count how often the page completed
/// without a k-wide solve. The counters live in the process-wide metrics
/// registry, so each loss point resets them before its trial loop.
void append_local_repair_rates(std::vector<SweepResult>& results) {
  stats::set_enabled(true);
  auto& reg = stats::Registry::instance();
  stats::Counter& decodes = reg.counter("erasure.lrc.decodes");
  stats::Counter& local_only = reg.counter("erasure.lrc.local_only_decodes");
  const struct {
    double p;
    const char* label;
  } losses[] = {{0.05, "0.05"}, {0.1, "0.1"}, {0.2, "0.2"}};
  for (const auto& loss : losses) {
    auto code = make_lrc_code(32, 48);
    decodes.reset();
    local_only.reset();
    Page page(*code, 64, 6);
    Rng rng(static_cast<std::uint64_t>(loss.p * 1000) + 9);
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
      std::vector<Share> shares;
      for (std::size_t i = 0; i < 48; ++i) {
        if (rng.uniform(10000) < static_cast<std::size_t>(loss.p * 10000))
          continue;
        shares.push_back(page.share(i));
      }
      benchmark::DoNotOptimize(code->decode(shares, page.decoded));
    }
    const double rate =
        decodes.value() == 0
            ? 0.0
            : static_cast<double>(local_only.value()) /
                  static_cast<double>(decodes.value());
    results.push_back({"lrc_local_repair_rate/p=" + std::string(loss.label) +
                           "/k=32/n=48",
                       rate, static_cast<double>(decodes.value())});
  }
}

/// The paper cell's hot erasure calls (star20-paper: k=32, n=48, 64-byte
/// packets) under the active kernel: one contiguous page encode; decodes
/// with E = 3 (the cell's median) and E = 8 erased data blocks (k - E data
/// + E parity shares), each from detached shares and in place, with the
/// data shares already in their own slot of the output page; and one parity
/// block as the fused dot against the zero-fill-plus-addmul loop it
/// replaced, with their ratio.
void append_star20_rows(std::vector<SweepResult>& results) {
  const std::size_t k = 32, n = 48, len = 64;
  const std::string kernel = gf256_kernel().name;
  auto code = make_rs_code(k, n);
  Page page(*code, len, 11);
  results.push_back(time_op(
      "star20/rs_encode_contiguous/k=32/n=48/len=64", k * len, [&] {
        code->encode(view(page.data), page.encoded);
        benchmark::DoNotOptimize(page.encoded.data());
      }));

  for (std::size_t erased : {3u, 8u}) {
    std::vector<Share> detached, in_place;
    Bytes slots(k * len);
    for (std::size_t j = erased; j < k; ++j) {
      const Share s = page.share(j);
      const MutByteView slot = MutByteView(slots).subspan(j * len, len);
      std::copy(s.data.begin(), s.data.end(), slot.begin());
      detached.push_back(s);
      in_place.push_back({j, slot});
    }
    for (std::size_t i = 0; i < erased; ++i) {
      detached.push_back(page.share(k + i));
      in_place.push_back(page.share(k + i));
    }
    if (!code->decode(detached, page.decoded) || !page.decoded_ok() ||
        !code->decode(in_place, slots) || slots != page.data) {
      std::cerr << "star20 decode failed at erased=" << erased << "\n";
      std::exit(1);
    }
    const std::string geometry =
        "/erased=" + std::to_string(erased) + "/k=32/n=48/len=64";
    results.push_back(
        time_op("star20/rs_decode_contiguous" + geometry, k * len, [&] {
          benchmark::DoNotOptimize(code->decode(detached, page.decoded));
        }));
    results.push_back(
        time_op("star20/rs_decode_in_place" + geometry, k * len, [&] {
          benchmark::DoNotOptimize(code->decode(in_place, slots));
        }));
  }

  std::vector<const std::uint8_t*> srcs;
  for (std::size_t j = 0; j < k; ++j)
    srcs.push_back(page.data.data() + j * len);
  Rng rng(12);
  Bytes coeffs(k);
  for (auto& c : coeffs) c = static_cast<std::uint8_t>(1 + rng.uniform(255));
  Bytes dst(len);
  const Gf256Kernel& kern = gf256_kernel();
  const SweepResult dot = time_op(
      "star20/gf256_dot/kernel=" + kernel + "/sources=32/len=64", k * len,
      [&] {
        kern.dot(dst.data(), srcs.data(), coeffs.data(), k, len);
        benchmark::DoNotOptimize(dst.data());
      });
  const SweepResult loop = time_op(
      "star20/gf256_addmul_loop/kernel=" + kernel + "/sources=32/len=64",
      k * len, [&] {
        std::memset(dst.data(), 0, len);
        for (std::size_t s = 0; s < k; ++s)
          kern.addmul(dst.data(), srcs[s], len, coeffs[s]);
        benchmark::DoNotOptimize(dst.data());
      });
  results.push_back(dot);
  results.push_back(loop);
  results.push_back({"star20/gf256_dot/speedup/dot_vs_addmul_loop",
                     dot.mb_per_s / loop.mb_per_s, 0.0});
}

/// Speedup rows: the fastest available kernel vs the reference oracle for
/// the paper config — the acceptance metric this bench exists to
/// demonstrate. "Fastest" is empirical (best measured MB/s per op), not
/// positional, so one noisy measurement window cannot misreport the ISA
/// ranking.
void append_speedups(std::vector<SweepResult>& results) {
  for (const char* op : {"rs_encode", "rs_decode", "gf256_addmul"}) {
    const std::string key = std::string(op) == "gf256_addmul"
                                ? std::string(op) + "/kernel=%s/len=64"
                                : std::string(op) + "/kernel=%s/k=32/n=48/len=64";
    auto find = [&](const std::string& kernel) -> const SweepResult* {
      std::string want = key;
      want.replace(want.find("%s"), 2, kernel);
      for (const auto& r : results) {
        if (r.name == want) return &r;
      }
      return nullptr;
    };
    const SweepResult* ref = find("ref");
    if (ref == nullptr || ref->mb_per_s <= 0) continue;
    const SweepResult* best = nullptr;
    std::string best_name;
    for (const auto& kernel : gf256_available_kernels()) {
      if (kernel == "ref") continue;
      const SweepResult* r = find(kernel);
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    if (best == nullptr) continue;
    results.push_back({std::string(op) + "/speedup/" + best_name + "_vs_ref",
                       best->mb_per_s / ref->mb_per_s, 0.0});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool sweep = bench::micro_sweep_wanted("micro_erasure", argc, argv);
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!sweep) return 0;
  auto results = run_sweep();
  append_codec_sweep(results);
  append_erased_sweep(results);
  append_local_repair_rates(results);
  append_star20_rows(results);
  append_speedups(results);
  bench::write_bench_json("micro_erasure", bench::sweep_table(results));
  return 0;
}
