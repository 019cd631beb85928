// Microbenchmarks for the erasure-coding substrate: GF(256) inner loops
// across every dispatched kernel and full-page encode/decode for the paper's
// geometry (k=32, n=48, 64-byte blocks) — the per-page computational price
// of loss resilience — plus the TX schedulers that pick which of a page's
// packets to send.
//
// One self-timed sweep (bench::time_op: best of three ~150 ms windows per
// row) covers kernels x (k, n, payload). It prints the table and writes it
// to BENCH_micro_erasure.json (override the path with LRS_BENCH_JSON, skip
// with LRS_BENCH_JSON=none) so successive PRs have a perf trajectory to
// track. Flags: --metrics=M.json and --metrics-heartbeat=S, as in every
// harness. The sweep also covers the LRC backend: encode/decode per
// geometry, the local-repair fast path, RS/LRC decode against the number of
// erased data blocks, and Monte Carlo local-repair hit rates at the Fig. 6
// loss points; the seeded random linear codes; codec construction with and
// without the codec cache; and the scheduler/ rows, one whole SNACK-and-drain
// session per greedy or union scheduler.
// The star20/ rows pin the paper cell's hot calls under the active kernel:
// contiguous RS encode, decode with 3 and 8 erasures — from detached shares
// and with the data shares already in their own slot of the output page, as
// an LR-Seluge receiver stores them — and the fused dot against the addmul
// loop it replaced. Every codec row encodes and decodes through
// the contiguous caller-owned buffer API into buffers allocated once,
// outside the timing.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/greedy_scheduler.h"
#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/gf256_kernels.h"
#include "proto/scheduler.h"
#include "sim/stats/stats.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace {

using namespace lrs;
using namespace lrs::erasure;
using bench::do_not_optimize;
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
// Self-timed JSON sweep: kernels x (k, n, payload) -> BENCH_micro_erasure.json
// ---------------------------------------------------------------------------

struct SweepConfig {
  std::size_t k, n, payload;
};

const SweepConfig kConfigs[] = {
    {32, 48, 64},    // the paper's page geometry
    {16, 24, 32},    // small pages / page-0-like
    {64, 128, 256},  // scaled-up workload
};

/// "/k=<k>/n=<n>/len=<payload>", the row-name suffix of a geometry.
std::string geometry(const SweepConfig& cfg) {
  return "/k=" + std::to_string(cfg.k) + "/n=" + std::to_string(cfg.n) +
         "/len=" + std::to_string(cfg.payload);
}

/// `codec`_encode`suffix` and `codec`_decode`suffix` rows: one page
/// encoded, and decoded from its last decode_threshold() + `spare` shares
/// (parity heavy), which must give the page back.
void append_encode_decode(std::vector<SweepResult>& results,
                          const std::string& codec, const std::string& suffix,
                          const ErasureCode& code, std::size_t len,
                          std::size_t spare = 0) {
  Page page(code, len, 2);
  const std::size_t page_bytes = code.k() * len;
  results.push_back(time_op(codec + "_encode" + suffix, page_bytes, [&] {
    code.encode(view(page.data), page.encoded);
    do_not_optimize(page.encoded.data());
  }));
  std::vector<Share> shares;
  for (std::size_t i = 0; i < code.decode_threshold() + spare; ++i)
    shares.push_back(page.share(code.n() - 1 - i));
  if (!code.decode(shares, page.decoded) || !page.decoded_ok()) {
    std::cerr << codec << "_decode" << suffix << " failed\n";
    std::exit(1);
  }
  results.push_back(time_op(codec + "_decode" + suffix, page_bytes, [&] {
    do_not_optimize(code.decode(shares, page.decoded));
  }));
}

std::vector<SweepResult> run_sweep() {
  std::vector<SweepResult> results;
  const std::string active = gf256_kernel().name;
  for (const auto& name : gf256_available_kernels()) {
    if (!gf256_set_kernel(name)) continue;
    const Gf256Kernel* kernel = gf256_find_kernel(name);

    // Raw addmul at a few buffer sizes.
    for (std::size_t len : {64u, 256u, 1024u, 4096u}) {
      Bytes dst(len, 3), src(len, 7);
      results.push_back(time_op(
          "gf256_addmul/kernel=" + name + "/len=" + std::to_string(len), len,
          [&] {
            kernel->addmul(dst.data(), src.data(), len, 0x8e);
            do_not_optimize(dst.data());
          }));
    }

    // Full RS encode + parity-heavy decode per geometry.
    for (const auto& cfg : kConfigs) {
      append_encode_decode(results, "rs", "/kernel=" + name + geometry(cfg),
                           *make_rs_code(cfg.k, cfg.n), cfg.payload);
    }
  }
  gf256_set_kernel(active);
  return results;
}

/// Codec rows under the active kernel: LRC encode/decode per geometry, the
/// LRC local-repair fast path, and the seeded random linear codes at the
/// paper geometry, decoded from two shares past their threshold (their
/// rank is probabilistic). These run once (not per kernel): their hot
/// loops go through the same dispatched kernels as RS, which the kernel
/// sweep already covers.
void append_codec_sweep(std::vector<SweepResult>& results) {
  for (const auto& cfg : kConfigs) {
    append_encode_decode(results, "lrc", geometry(cfg),
                         *make_lrc_code(cfg.k, cfg.n), cfg.payload);
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
          do_not_optimize(code->decode(shares, page.decoded));
        }));
  }

  append_encode_decode(results, "rlc2", geometry(kConfigs[0]),
                       *make_code(CodecKind::kRlcGf2, 32, 48, 2, 42), 64, 2);
  append_encode_decode(results, "rlc256", geometry(kConfigs[0]),
                       *make_code(CodecKind::kRlcGf256, 32, 48, 1, 42), 64, 2);
}

/// Decode cost against the number of erased data blocks E at the paper
/// geometry. The lost columns are the first E of one fixed random column
/// permutation (so each pattern contains the smaller ones); RS holds the
/// other data blocks plus the last E parity blocks (exactly k shares), LRC
/// the other data blocks plus every parity block. Decode work grows with E
/// (erased-column solve; LRC first repairs lone group erasures locally);
/// E = 0 is the systematic fast path, every data block present.
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
    for (std::size_t erased : {0u, 1u, 3u, 8u, 16u}) {
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
        do_not_optimize(code->decode(shares, page.decoded));
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
      do_not_optimize(code->decode(shares, page.decoded));
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
        do_not_optimize(page.encoded.data());
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
          do_not_optimize(code->decode(detached, page.decoded));
        }));
    results.push_back(
        time_op("star20/rs_decode_in_place" + geometry, k * len, [&] {
          do_not_optimize(code->decode(in_place, slots));
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
        do_not_optimize(dst.data());
      });
  const SweepResult loop = time_op(
      "star20/gf256_addmul_loop/kernel=" + kernel + "/sources=32/len=64",
      k * len, [&] {
        std::memset(dst.data(), 0, len);
        for (std::size_t s = 0; s < k; ++s)
          kern.addmul(dst.data(), srcs[s], len, coeffs[s]);
        do_not_optimize(dst.data());
      });
  results.push_back(dot);
  results.push_back(loop);
  results.push_back({"star20/gf256_dot/speedup/dot_vs_addmul_loop",
                     dot.mb_per_s / loop.mb_per_s, 0.0});
}

/// Codec construction at the paper geometry: a hit in the process-wide
/// codec cache against building the RS code from scratch.
void append_construction_rows(std::vector<SweepResult>& results) {
  make_code_cached(CodecKind::kReedSolomon, 32, 48, 0, 0);  // warm
  results.push_back(time_op("codec_cache_hit/rs/k=32/n=48", 0, [] {
    do_not_optimize(make_code_cached(CodecKind::kReedSolomon, 32, 48, 0, 0));
  }));
  results.push_back(time_op("codec_construct/rs/k=32/n=48", 0, [] {
    do_not_optimize(make_rs_code(32, 48));
  }));
}

/// The TX schedulers' CPU cost per page (paper §IV-D.3), one whole session
/// per call: every receiver's SNACK merged into a fresh scheduler, then
/// drained to the last packet. Each receiver requests q of the 48 packets
/// (each with probability 0.6) and needs q + k' - 48 of them (at least 1),
/// k' = 32. The greedy round-robin tracking table against the union of
/// requests at 4, 20 and 100 receivers, plus one SNACK merged into a warm
/// greedy table.
void append_scheduler_rows(std::vector<SweepResult>& results) {
  const std::size_t n = 48, kprime = 32;
  const auto fill = [&](proto::TxScheduler& s, std::size_t receivers,
                        Rng& rng) {
    for (NodeId v = 0; v < receivers; ++v) {
      BitVec bits(n);
      for (std::size_t j = 0; j < n; ++j) bits.set(j, rng.bernoulli(0.6));
      if (bits.none()) bits.set(0);
      const std::size_t q = bits.count();
      s.on_snack(v, bits, q + kprime > n ? q + kprime - n : 1);
    }
  };
  for (std::size_t receivers : {4u, 20u, 100u}) {
    const std::string suffix =
        "/receivers=" + std::to_string(receivers) + "/n=48";
    Rng greedy_rng(1);
    results.push_back(time_op("scheduler/greedy_drain" + suffix, 0, [&] {
      core::GreedyRoundRobinScheduler s(n);
      fill(s, receivers, greedy_rng);
      while (s.next_packet()) {
      }
    }));
    Rng union_rng(2);
    results.push_back(time_op("scheduler/union_drain" + suffix, 0, [&] {
      const auto s = proto::make_union_scheduler(n);
      fill(*s, receivers, union_rng);
      while (s->next_packet()) {
      }
    }));
  }

  Rng rng(3);
  core::GreedyRoundRobinScheduler s(n);
  BitVec bits(n);
  for (std::size_t j = 0; j < n; ++j) bits.set(j, rng.bernoulli(0.5));
  NodeId v = 0;
  results.push_back(time_op("scheduler/greedy_snack_merge/n=48", 0,
                            [&] { s.on_snack(v++ % 64, bits, 16); }));
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
  Args args(argc, argv);
  bench::finish_flags(args, false, argv[0],
                      "[--metrics=M.json] [--metrics-heartbeat=S]");
  auto results = run_sweep();
  append_codec_sweep(results);
  append_erased_sweep(results);
  append_construction_rows(results);
  append_scheduler_rows(results);
  // Turns the metrics registry on, so the codec timers run in every row
  // after it.
  append_local_repair_rates(results);
  append_star20_rows(results);
  append_speedups(results);
  const Table table = bench::sweep_table(results);
  bench::print_table("micro_erasure sweep", table);
  bench::write_bench_json("micro_erasure", table);
  return 0;
}
