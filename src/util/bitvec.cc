#include "util/bitvec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.h"

namespace lrs {

BitVec::BitVec(std::size_t size) {
  reshape(size);
  clear_all();
}

BitVec::BitVec(std::size_t size, bool value) : BitVec(size) {
  if (value) set_all();
}

BitVec::BitVec(const BitVec& other) { *this = other; }

BitVec::BitVec(BitVec&& other) noexcept { *this = std::move(other); }

BitVec& BitVec::operator=(const BitVec& other) {
  if (this == &other) return *this;
  reshape(other.size_);
  std::copy_n(other.words(), word_count(), words());
  return *this;
}

BitVec& BitVec::operator=(BitVec&& other) noexcept {
  if (this == &other) return *this;
  size_ = other.size_;
  heap_ = std::move(other.heap_);
  std::copy_n(other.inline_, kInlineWords, inline_);
  other.size_ = 0;
  return *this;
}

void BitVec::reshape(std::size_t size) {
  // Heap words are reused when the word count is unchanged.
  if (size > kInlineBits) {
    if (size_ <= kInlineBits || word_count() != (size + 63) / 64) {
      heap_ = std::make_unique_for_overwrite<std::uint64_t[]>((size + 63) /
                                                              64);
    }
  } else {
    heap_.reset();
  }
  size_ = size;
}

void BitVec::set_all() {
  std::fill_n(words(), word_count(), ~std::uint64_t{0});
  trim_tail();
}

void BitVec::clear_all() { std::fill_n(words(), word_count(), 0); }

void BitVec::trim_tail() {
  const std::size_t tail = size_ % 64;
  if (tail != 0) words()[word_count() - 1] &= (std::uint64_t{1} << tail) - 1;
}

std::size_t BitVec::count() const {
  std::size_t c = 0;
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < word_count(); ++i)
    c += static_cast<std::size_t>(std::popcount(w[i]));
  return c;
}

bool BitVec::any() const {
  const std::uint64_t* w = words();
  return std::any_of(w, w + word_count(),
                     [](std::uint64_t x) { return x != 0; });
}

BitVec& BitVec::operator|=(const BitVec& other) {
  LRS_CHECK(size_ == other.size_);
  std::uint64_t* w = words();
  const std::uint64_t* o = other.words();
  for (std::size_t i = 0; i < word_count(); ++i) w[i] |= o[i];
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  LRS_CHECK(size_ == other.size_);
  std::uint64_t* w = words();
  const std::uint64_t* o = other.words();
  for (std::size_t i = 0; i < word_count(); ++i) w[i] &= o[i];
  return *this;
}

BitVec& BitVec::subtract(const BitVec& other) {
  LRS_CHECK(size_ == other.size_);
  std::uint64_t* w = words();
  const std::uint64_t* o = other.words();
  for (std::size_t i = 0; i < word_count(); ++i) w[i] &= ~o[i];
  return *this;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ &&
         std::equal(words(), words() + word_count(), other.words());
}

std::optional<std::size_t> BitVec::first_set(std::size_t from) const {
  if (from >= size_) return std::nullopt;
  const std::uint64_t* w = words();
  std::size_t wi = word_index(from);
  // Bits below `from` in its word are masked off; the zero tail past
  // size_ can never be found.
  std::uint64_t cur = w[wi] & (~std::uint64_t{0} << (from % 64));
  while (cur == 0) {
    if (++wi == word_count()) return std::nullopt;
    cur = w[wi];
  }
  return wi * 64 + static_cast<std::size_t>(std::countr_zero(cur));
}

std::optional<std::size_t> BitVec::first_set_cyclic(std::size_t from) const {
  if (size_ == 0) return std::nullopt;
  from %= size_;
  if (auto i = first_set(from)) return i;
  // Nothing at or after `from`, so any set bit lies before it.
  return from == 0 ? std::nullopt : first_set(0);
}

Bytes BitVec::to_bytes() const {
  Bytes out(byte_size());
  write_bytes(out);
  return out;
}

void BitVec::write_bytes(MutByteView out) const {
  LRS_CHECK(out.size() == byte_size());
  // Both layouts are little-endian (bit i lives at byte i/8, bit i%8; word
  // i/64, bit i%64), so on a little-endian host the words are the bytes.
  const std::uint64_t* w = words();
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) std::memcpy(out.data(), w, out.size());
  } else {
    for (std::size_t b = 0; b < out.size(); ++b)
      out[b] = static_cast<std::uint8_t>(w[b / 8] >> (8 * (b % 8)));
  }
}

BitVec BitVec::from_bytes(ByteView bytes, std::size_t size) {
  const std::size_t nbytes = (size + 7) / 8;
  LRS_CHECK(bytes.size() >= nbytes);
  BitVec v(size);
  std::uint64_t* w = v.words();
  if constexpr (std::endian::native == std::endian::little) {
    if (nbytes != 0) std::memcpy(w, bytes.data(), nbytes);
  } else {
    for (std::size_t b = 0; b < nbytes; ++b)
      w[b / 8] |= static_cast<std::uint64_t>(bytes[b]) << (8 * (b % 8));
  }
  v.trim_tail();
  return v;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

}  // namespace lrs
