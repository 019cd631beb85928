// Bounds-checked binary serialization.
//
// All wire formats in the protocol layer are serialized through Writer and
// parsed through Reader. Integers are little-endian. Reader signals malformed
// input by returning std::nullopt from try_* accessors (protocol code treats
// malformed packets as hostile and drops them) or throwing from the plain
// accessors (internal use where malformation is a bug).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/types.h"

namespace lrs {

// The integer and byte primitives are defined inline: parse runs once per
// delivered frame, which makes these the most frequently called functions
// in a large simulation.
class Writer {
 public:
  Writer() = default;
  /// Pre-sizes the buffer: the integer writers append byte by byte, so a
  /// caller that knows the final size saves every regrowth.
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// Raw bytes, no length prefix.
  void bytes(ByteView b) { out_.insert(out_.end(), b.begin(), b.end()); }
  /// u16 length prefix followed by the bytes.
  void sized_bytes(ByteView b);
  /// Appends `n` zero bytes and returns them for the caller to fill in
  /// place; the view is valid until the next write.
  MutByteView extend(std::size_t n) {
    out_.resize(out_.size() + n);
    return MutByteView(out_).subspan(out_.size() - n);
  }

  const Bytes& data() const& { return out_; }
  Bytes take() && { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::optional<std::uint8_t> try_u8() {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> try_u16() {
    if (remaining() < 2) return std::nullopt;
    const std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                            static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }
  std::optional<std::uint32_t> try_u32() {
    if (remaining() < 4) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::optional<std::uint64_t> try_u64() {
    if (remaining() < 8) return std::nullopt;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  /// Next `n` raw bytes, as a view into the input (no copy).
  std::optional<ByteView> try_view(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    const ByteView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  /// u16 length prefix followed by that many bytes, as a view.
  std::optional<ByteView> try_sized_view() {
    const auto n = try_u16();
    if (!n) return std::nullopt;
    return try_view(*n);
  }
  /// Next `n` raw bytes, copied.
  std::optional<Bytes> try_bytes(std::size_t n) {
    const auto v = try_view(n);
    if (!v) return std::nullopt;
    return Bytes(v->begin(), v->end());
  }
  /// u16 length prefix followed by that many bytes, copied.
  std::optional<Bytes> try_sized_bytes() {
    const auto n = try_u16();
    if (!n) return std::nullopt;
    return try_bytes(*n);
  }

  /// Throwing variants for internal deserialization where failure is a bug.
  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes bytes(std::size_t n);
  Bytes sized_bytes();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }
  /// Everything not yet consumed.
  Bytes rest();

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace lrs
