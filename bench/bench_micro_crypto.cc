// Microbenchmarks for the cryptographic substrate: SHA-256 throughput
// across every dispatched kernel (scalar reference, unrolled, SHA-NI,
// multi-buffer SIMD), packet hashes, HMAC, Merkle build and path
// verification, WOTS keygen/sign/verify, certified verification,
// multi-key signer set-up with the public-key memo cold and warm, puzzle
// solve/verify. These are the per-packet and per-image costs a sensor node
// pays (paper §III cites 1.12 s for one ECDSA verification on a Tmote Sky
// — our WOTS substitute is measured here).
//
// One self-timed sweep (bench::time_op: best of three ~150 ms windows per
// row) covers kernels x message sizes x batch widths and the per-operation
// rows. It prints the table and writes it to BENCH_micro_crypto.json
// (override the path with LRS_BENCH_JSON, skip with LRS_BENCH_JSON=none) so
// successive PRs have a perf trajectory to track. Flags: --metrics=M.json
// and --metrics-heartbeat=S, as in every harness.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/puzzle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/wots.h"
#include "util/buffer.h"
#include "util/rng.h"

namespace {

using namespace lrs;
using namespace lrs::crypto;
using bench::do_not_optimize;
using bench::SweepResult;
using bench::time_op;

Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

// ---------------------------------------------------------------------------
// Self-timed JSON sweep: kernels x message sizes x batch widths
//   -> BENCH_micro_crypto.json
// ---------------------------------------------------------------------------

std::vector<SweepResult> run_sweep() {
  std::vector<SweepResult> results;

  // One-shot digest throughput per single-stream kernel x message size:
  // 32 B Merkle-node-scale preimages, 64 B packet-hash-scale preimages,
  // then bulk sizes where the compression loop dominates padding.
  for (const auto& name : sha256_available_kernels()) {
    if (!sha256_set_kernel(name)) continue;
    for (std::size_t len : {32u, 64u, 256u, 1024u, 16384u}) {
      const Bytes msg = random_bytes(len, 31);
      results.push_back(time_op(
          "sha256/kernel=" + name + "/len=" + std::to_string(len), len, [&] {
            do_not_optimize(Sha256::hash(view(msg)));
          }));
    }
  }
  sha256_set_kernel("auto");

  // The one-block path alone, under the auto-selected kernel: a 32-byte
  // message (a WOTS chain value, an HMAC inner digest) padded into one block
  // and compressed from the IV, without the one-shot timer scope.
  {
    const Bytes msg = random_bytes(32, 33);
    results.push_back(time_op("sha256/oneblock/len=32", 32, [&] {
      do_not_optimize(Sha256::finish_one_block(kSha256Iv, view(msg)));
    }));
  }

  // Raw block compression, identical total work (8 blocks): single-stream
  // kernels chew 8 sequential blocks of one message; batch kernels chew 8
  // independent one-block lanes. This isolates the kernel from padding and
  // buffer management.
  {
    const Bytes data = random_bytes(8 * 64, 41);
    for (const auto& name : sha256_available_kernels()) {
      const Sha256Kernel* kernel = sha256_find_kernel(name);
      std::uint32_t state[8];
      std::memcpy(state, kSha256Init, sizeof(state));
      results.push_back(
          time_op("sha256_compress/kernel=" + name + "/blocks=8", 8 * 64,
                  [&] {
                    kernel->compress(state, data.data(), 8);
                    do_not_optimize(state);
                  }));
    }
    for (const auto& name : sha256_available_batch_kernels()) {
      const Sha256BatchKernel* kernel = sha256_find_batch_kernel(name);
      std::uint32_t states[8 * 8];
      const std::uint8_t* ptrs[8];
      for (std::size_t i = 0; i < 8; ++i) {
        std::memcpy(states + 8 * i, kSha256Init, sizeof(kSha256Init));
        ptrs[i] = data.data() + 64 * i;
      }
      results.push_back(
          time_op("sha256_compress_batch/kernel=" + name + "/count=8",
                  8 * 64, [&] {
                    kernel->compress_batch(states, ptrs, 8);
                    do_not_optimize(states);
                  }));
    }
  }

  // End-to-end hash_batch across batch widths (64 B messages — the packet
  // preimage scale) under the auto-selected kernels.
  for (std::size_t width : {4u, 8u, 16u, 48u}) {
    std::vector<Bytes> msgs;
    std::vector<ByteView> views;
    for (std::size_t i = 0; i < width; ++i) {
      msgs.push_back(random_bytes(64, 51 + i));
    }
    for (const auto& m : msgs) views.push_back(view(m));
    std::vector<Sha256Digest> out(width);
    results.push_back(time_op(
        "hash_batch/width=" + std::to_string(width) + "/len=64", width * 64,
        [&] {
          hash_batch(views.data(), width, out.data());
          do_not_optimize(out.data());
        }));
  }

  // The two hot paths the batch layer serves, batch vs pinned-scalar:
  // hashing one page's worth of packet preimages (48 x 77 B) and building
  // the page-0 Merkle tree (64 x 72 B leaves).
  {
    std::vector<Bytes> preimages;
    std::vector<ByteView> views;
    for (std::size_t i = 0; i < 48; ++i) {
      preimages.push_back(random_bytes(77, 61 + i));
    }
    for (const auto& m : preimages) views.push_back(view(m));
    std::vector<PacketHash> out(48);
    std::vector<Bytes> leaves;
    for (std::size_t i = 0; i < 64; ++i) {
      leaves.push_back(random_bytes(72, 71 + i));
    }
    for (const char* mode : {"batch", "scalar"}) {
      // "ref" pins the scalar oracle and disables the batch path; "auto"
      // restores CPUID selection.
      sha256_set_kernel(std::string(mode) == "scalar" ? "ref" : "auto");
      results.push_back(time_op(
          std::string("packet_hash_batch/width=48/mode=") + mode, 48 * 77,
          [&] {
            packet_hash_batch(views.data(), 48, out.data());
            do_not_optimize(out.data());
          }));
      results.push_back(time_op(
          std::string("merkle_build/leaves=64/mode=") + mode, 64 * 72, [&] {
            do_not_optimize(MerkleTree::build(leaves));
          }));
    }
    sha256_set_kernel("auto");
  }

  // The per-packet operations under the auto-selected kernels: one packet
  // hash (a data-frame preimage), one control-packet HMAC, the Merkle tree
  // of a small page 0 and one authentication-path check.
  {
    const Bytes packet = random_bytes(77, 2);
    results.push_back(time_op("packet_hash/len=77", 77, [&] {
      do_not_optimize(packet_hash(view(packet)));
    }));
    const Bytes key = random_bytes(16, 3);
    const Bytes msg = random_bytes(32, 4);
    results.push_back(time_op("hmac_sha256/key=16/len=32", 32, [&] {
      do_not_optimize(hmac_sha256(view(key), view(msg)));
    }));
    std::vector<Bytes> leaves;
    for (std::size_t i = 0; i < 16; ++i) leaves.push_back(random_bytes(72, i));
    for (std::size_t count : {8u, 16u}) {
      const std::vector<Bytes> page(leaves.begin(), leaves.begin() + count);
      results.push_back(time_op(
          "merkle_build/leaves=" + std::to_string(count), count * 72,
          [&] { do_not_optimize(MerkleTree::build(page)); }));
    }
    const auto path = MerkleTree::build(leaves).auth_path(5);
    results.push_back(time_op("merkle_verify/leaves=16", 0, [&] {
      do_not_optimize(MerkleTree::compute_root(view(leaves[5]), 5, path));
    }));
  }

  // The DoS puzzle's work asymmetry: solving (the base station's 2^strength
  // expected hashes, on a fresh 48-byte message each time, so the row
  // averages over many draws) against verifying (one hash, paid on every
  // received signature packet). Latency rows.
  {
    Bytes msg = random_bytes(48, 12);
    for (unsigned strength : {8u, 12u}) {
      std::uint64_t nonce = 0;
      results.push_back(time_op(
          "puzzle/solve/strength=" + std::to_string(strength), 0, [&] {
            std::memcpy(msg.data(), &nonce, sizeof(nonce));
            ++nonce;
            do_not_optimize(
                solve_puzzle(view(msg), static_cast<std::uint8_t>(strength)));
          }));
    }
    const auto solution = solve_puzzle(view(msg), 12);
    results.push_back(time_op("puzzle/verify/strength=12", 0, [&] {
      do_not_optimize(verify_puzzle(view(msg), solution));
    }));
  }

  // Signer construction, the per-trial set-up cost of every experiment:
  // a fresh seed each iteration walks all 4 x 18 x 255 WOTS chain steps;
  // a repeated seed finds the public keys in the memo and pays only the
  // secret-chain HMACs and the Merkle tree. Latency rows (no throughput).
  {
    std::uint64_t fresh = 0;
    results.push_back(time_op("multikey_signer/h=2/memo=miss", 0, [&] {
      Writer seed;
      seed.u64(fresh++);
      MultiKeySigner signer(view(seed.data()), 2);
      do_not_optimize(signer.root_public_key());
    }));
    const Bytes seed = random_bytes(32, 81);
    results.push_back(time_op("multikey_signer/h=2/memo=hit", 0, [&] {
      MultiKeySigner signer(view(seed), 2);
      do_not_optimize(signer.root_public_key());
    }));
  }

  // One WOTS signature: the 18 chains walked side by side, each from the
  // highest memoized checkpoint (step 0, 64, 128 or 192) at or below its
  // digit, about 560 chain steps for a typical message. Each iteration
  // signs with a fresh copy of one unused key pair. Latency rows, as are
  // the key generation and verification rows after it.
  {
    const Bytes seed = random_bytes(32, 91);
    const Bytes msg = random_bytes(20, 92);  // a signed-message-sized input
    const WotsKeyPair unused = WotsKeyPair::generate(view(seed), 0);
    results.push_back(time_op("wots/sign", 0, [&] {
      WotsKeyPair kp = unused;
      do_not_optimize(kp.sign(view(msg)));
    }));
    // Key generation on a memo miss (a new key index per iteration: 18
    // chain HMACs plus the 18 x 255-step walk), and one verification (each
    // chain walked from its signature value up to the public key).
    std::uint64_t index = 1;
    results.push_back(time_op("wots/keygen/memo=miss", 0, [&] {
      do_not_optimize(WotsKeyPair::generate(view(seed), index++));
    }));
    WotsKeyPair kp = unused;
    const WotsSignature sig = kp.sign(view(msg));
    results.push_back(time_op("wots/verify", 0, [&] {
      do_not_optimize(WotsKeyPair::verify(unused.public_key(), view(msg), sig));
    }));
  }

  // The once-per-image check a receiver runs: a WOTS verification plus the
  // key's Merkle certificate against the preloaded root. Uncached (the
  // memo in verify_certified_cached would answer after the first call).
  {
    const Bytes seed = random_bytes(32, 10);
    const Bytes msg = random_bytes(40, 11);
    MultiKeySigner signer(view(seed), 2);
    const CertifiedSignature sig = signer.sign(view(msg));
    results.push_back(time_op("multikey_signer/h=2/verify", 0, [&] {
      do_not_optimize(
          MultiKeySigner::verify(signer.root_public_key(), view(msg), sig));
    }));
  }
  return results;
}

/// Speedup rows: the fastest available kernel vs the scalar reference
/// oracle — the acceptance metric this bench exists to demonstrate.
/// "Fastest" is empirical (best measured MB/s), not positional, so one
/// noisy measurement window cannot misreport the ISA ranking.
void append_speedups(std::vector<SweepResult>& results) {
  auto find = [&](const std::string& want) -> const SweepResult* {
    for (const auto& r : results) {
      if (r.name == want) return &r;
    }
    return nullptr;
  };

  // One-shot digest speedup at the packet-preimage scale and in bulk.
  for (std::size_t len : {64u, 16384u}) {
    const std::string suffix = "/len=" + std::to_string(len);
    const SweepResult* ref = find("sha256/kernel=ref" + suffix);
    if (ref == nullptr || ref->mb_per_s <= 0) continue;
    const SweepResult* best = nullptr;
    std::string best_name;
    for (const auto& kernel : sha256_available_kernels()) {
      if (kernel == "ref") continue;
      const SweepResult* r = find("sha256/kernel=" + kernel + suffix);
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    if (best == nullptr) continue;
    results.push_back({"sha256/speedup/" + best_name + "_vs_ref" + suffix,
                       best->mb_per_s / ref->mb_per_s, 0.0});
  }

  // Block-compression speedup: best single or batch kernel vs ref, same
  // 8-block workload.
  {
    const SweepResult* ref = find("sha256_compress/kernel=ref/blocks=8");
    const SweepResult* best = nullptr;
    std::string best_name;
    for (const auto& kernel : sha256_available_kernels()) {
      if (kernel == "ref") continue;
      const SweepResult* r =
          find("sha256_compress/kernel=" + kernel + "/blocks=8");
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    for (const auto& kernel : sha256_available_batch_kernels()) {
      const SweepResult* r =
          find("sha256_compress_batch/kernel=" + kernel + "/count=8");
      if (r != nullptr && (best == nullptr || r->mb_per_s > best->mb_per_s)) {
        best = r;
        best_name = kernel;
      }
    }
    if (ref != nullptr && ref->mb_per_s > 0 && best != nullptr) {
      results.push_back({"sha256_compress/speedup/" + best_name + "_vs_ref",
                         best->mb_per_s / ref->mb_per_s, 0.0});
    }
  }

  // End-to-end hot paths, batch vs pinned scalar.
  for (const char* op : {"packet_hash_batch/width=48", "merkle_build/leaves=64"}) {
    const SweepResult* scalar = find(std::string(op) + "/mode=scalar");
    const SweepResult* batch = find(std::string(op) + "/mode=batch");
    if (scalar == nullptr || batch == nullptr || scalar->mb_per_s <= 0)
      continue;
    results.push_back({std::string(op) + "/speedup/batch_vs_scalar",
                       batch->mb_per_s / scalar->mb_per_s, 0.0});
  }

  // Signer set-up, memo hit vs miss (latency ratio).
  {
    const SweepResult* miss = find("multikey_signer/h=2/memo=miss");
    const SweepResult* hit = find("multikey_signer/h=2/memo=hit");
    if (miss != nullptr && hit != nullptr && hit->ns_per_op > 0) {
      results.push_back({"multikey_signer/h=2/speedup/hit_vs_miss",
                         miss->ns_per_op / hit->ns_per_op, 0.0});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  bench::finish_flags(args, false, argv[0],
                      "[--metrics=M.json] [--metrics-heartbeat=S]");
  auto results = run_sweep();
  append_speedups(results);
  const Table table = bench::sweep_table(results);
  bench::print_table("micro_crypto sweep", table);
  bench::write_bench_json(
      "micro_crypto", table,
      {{"batch_kernels",
        core::json_string_array(sha256_available_batch_kernels())}});
  return 0;
}
