// The reference kernel: a fixed piece of CPU work that belongs to the
// benchmark, not to the program under test. The benchmark times it next to
// every timed piece of the program and divides the host's speed at that
// moment out of the program's times (BENCHMARK.md, "Host speed"). No change
// to src/ can make it faster or slower.
//
// One round runs four parts whose sum tracked the simulator's own slow-downs
// on a shared host: dependent table lookups and a small sort, four
// independent lookup chains, small tree nodes and buffers from malloc, and
// a streaming copy and scan. Everything fits in L2.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

namespace perfbench {

class ReferenceKernel {
 public:
  static constexpr std::size_t kTableWords = 1u << 16;  // 256 KiB
  static constexpr std::size_t kStreamBytes = 1u << 18;
  static constexpr std::size_t kSortRun = 512;

  ReferenceKernel()
      : table_(kTableWords), run_(kSortRun), src_(kStreamBytes),
        dst_(kStreamBytes) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t& w : table_) w = static_cast<std::uint32_t>(x = mix(x));
  }

  /// Runs `rounds` rounds and returns the seconds they took. The work is
  /// the same on every call; only the host's speed changes the time.
  double time_rounds(int rounds) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      dependent_lookups();
      parallel_lookups();
      small_allocations();
      streaming_copy();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// Depends on every round, so the compiler cannot drop the work.
  std::uint64_t checksum() const { return state_; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 31;
    x *= 0x7fb5d329728ea185ull;
    x ^= x >> 27;
    x *= 0x81dadef4bc2dd44dull;
    return x ^ (x >> 33);
  }

  std::uint32_t sorted_median(std::uint64_t x) {
    const std::size_t at = (x >> 8) & (kTableWords - kSortRun);
    std::copy_n(table_.begin() + static_cast<std::ptrdiff_t>(at), kSortRun,
                run_.begin());
    std::sort(run_.begin(), run_.end());
    return run_[kSortRun / 2];
  }

  void dependent_lookups() {
    std::uint64_t x = state_;
    for (std::size_t i = 0; i < 4096; ++i) {
      x = mix(x + table_[x & (kTableWords - 1)]);
      table_[(x >> 20) & (kTableWords - 1)] ^= static_cast<std::uint32_t>(x);
    }
    state_ = x ^ sorted_median(x);
  }

  void parallel_lookups() {
    std::uint64_t a = state_, b = a ^ 1, c = a ^ 2, d = a ^ 3;
    for (std::size_t i = 0; i < 1024; ++i) {
      a = mix(a + table_[a & (kTableWords - 1)]);
      b = mix(b + table_[b & (kTableWords - 1)]);
      c = mix(c + table_[c & (kTableWords - 1)]);
      d = mix(d + table_[d & (kTableWords - 1)]);
    }
    state_ = a ^ b ^ c ^ d ^ sorted_median(a);
  }

  void small_allocations() {
    std::map<std::uint64_t, std::uint64_t> nodes;
    std::uint64_t x = state_;
    for (int i = 0; i < 300; ++i) {
      x = mix(x);
      nodes[x & 0xffff] += x;
    }
    for (const auto& kv : nodes) x ^= kv.second;
    std::vector<std::vector<std::uint8_t>> buffers;
    for (int i = 0; i < 16; ++i) {
      buffers.emplace_back(64 + ((x >> (i * 3)) & 1023),
                           static_cast<std::uint8_t>(i));
    }
    for (const auto& b : buffers) x += b[b.size() / 2];
    state_ = x;
  }

  void streaming_copy() {
    std::memcpy(dst_.data(), src_.data(), kStreamBytes);
    std::uint64_t x = state_;
    for (std::size_t i = 0; i < kStreamBytes; i += 64) x += dst_[i];
    src_[x & (kStreamBytes - 1)] ^= 1;
    state_ = x;
  }

  std::vector<std::uint32_t> table_;
  std::vector<std::uint32_t> run_;
  std::vector<std::uint8_t> src_, dst_;
  std::uint64_t state_ = 1;
};

}  // namespace perfbench
