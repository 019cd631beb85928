// Fixed-length dynamic bit vector.
//
// Used for SNACK request bitmaps: bit j set means "packet j is requested"
// (receiver does not have it yet). Provides the set algebra the TX-state
// schedulers need (union, intersection, popcount, column scans).
//
// Up to kInlineBits bits live inside the object, which covers every page
// geometry of the paper (n0 = 16, n = 48): building, copying and parsing a
// SNACK bitmap then never touches the heap. Longer vectors keep their words
// in one heap array. Bits past size() are always zero, so word-wide scans
// and byte packing need no tail masks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "util/check.h"
#include "util/types.h"

namespace lrs {

class BitVec {
 public:
  /// Vectors of at most this many bits keep their words inline.
  static constexpr std::size_t kInlineBits = 128;

  BitVec() = default;
  /// All bits cleared.
  explicit BitVec(std::size_t size);
  /// All bits set to `value`.
  BitVec(std::size_t size, bool value);

  BitVec(const BitVec& other);
  BitVec(BitVec&& other) noexcept;
  BitVec& operator=(const BitVec& other);
  BitVec& operator=(BitVec&& other) noexcept;
  ~BitVec() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // get/set are inline: TX schedulers scan request bitmaps bit-by-bit in
  // the simulation hot path.
  bool get(std::size_t i) const {
    LRS_CHECK(i < size_);
    return (words()[word_index(i)] & bit_mask(i)) != 0;
  }
  void set(std::size_t i, bool value = true) {
    LRS_CHECK(i < size_);
    if (value)
      words()[word_index(i)] |= bit_mask(i);
    else
      words()[word_index(i)] &= ~bit_mask(i);
  }
  void clear(std::size_t i) { set(i, false); }
  void set_all();
  void clear_all();

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// In-place union / intersection / subtraction; sizes must match.
  BitVec& operator|=(const BitVec& other);
  BitVec& operator&=(const BitVec& other);
  /// Clears every bit that is set in `other`.
  BitVec& subtract(const BitVec& other);

  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }

  bool operator==(const BitVec& other) const;

  /// Index of the first set bit at or after `from` (no wrap), if any.
  std::optional<std::size_t> first_set(std::size_t from = 0) const;
  /// Index of the first set bit scanning cyclically starting at `from`.
  std::optional<std::size_t> first_set_cyclic(std::size_t from) const;

  /// Serialized length in bytes (ceil(size/8)); SNACK byte accounting uses it.
  std::size_t byte_size() const { return (size_ + 7) / 8; }
  /// Packs bits little-endian within bytes.
  Bytes to_bytes() const;
  /// to_bytes() written into `out`, which must be byte_size() bytes.
  void write_bytes(MutByteView out) const;
  /// Inverse of to_bytes(); `size` restores the exact bit length.
  static BitVec from_bytes(ByteView bytes, std::size_t size);

  /// "10110…" debugging aid.
  std::string to_string() const;

 private:
  static constexpr std::size_t kInlineWords = kInlineBits / 64;

  std::size_t size_ = 0;
  std::uint64_t inline_[kInlineWords] = {};
  std::unique_ptr<std::uint64_t[]> heap_;  // set iff size_ > kInlineBits

  std::uint64_t* words() { return size_ > kInlineBits ? heap_.get() : inline_; }
  const std::uint64_t* words() const {
    return size_ > kInlineBits ? heap_.get() : inline_;
  }
  std::size_t word_count() const { return (size_ + 63) / 64; }
  static std::size_t word_index(std::size_t i) { return i / 64; }
  static std::uint64_t bit_mask(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }
  /// Gives this vector `size` bits of storage; contents unspecified.
  void reshape(std::size_t size);
  void trim_tail();
};

}  // namespace lrs
