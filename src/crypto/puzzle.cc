#include "crypto/puzzle.h"

#include "crypto/sha256.h"
#include "util/buffer.h"
#include "util/check.h"

namespace lrs::crypto {

namespace {
/// True iff the digest's low `strength` bits (reading the tail bytes) are 0.
bool tail_zero_bits(const Sha256Digest& d, unsigned strength) {
  unsigned remaining = strength;
  std::size_t i = d.size();
  while (remaining >= 8) {
    if (d[--i] != 0) return false;
    remaining -= 8;
  }
  if (remaining > 0) {
    const std::uint8_t mask = static_cast<std::uint8_t>((1u << remaining) - 1);
    if ((d[i - 1] & mask) != 0) return false;
  }
  return true;
}

Sha256Digest puzzle_hash(ByteView message, std::uint64_t candidate) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<std::uint8_t>(candidate >> (8 * i));
  const ByteView tail(buf, sizeof(buf));
  // A signature packet's signed message (20 bytes) and its candidate fit
  // one padded block.
  if (message.size() + tail.size() <= kSha256OneBlockMax)
    return Sha256::finish_one_block(kSha256Iv, message, tail);
  Sha256 h;
  h.update(message).update(tail);
  return h.finalize();
}
}  // namespace

Bytes PuzzleSolution::serialize() const {
  Writer w;
  w.u8(strength);
  w.u64(solution);
  return std::move(w).take();
}

std::optional<PuzzleSolution> PuzzleSolution::deserialize(ByteView data) {
  Reader r(data);
  PuzzleSolution p;
  auto s = r.try_u8();
  auto sol = r.try_u64();
  if (!s || !sol) return std::nullopt;
  p.strength = *s;
  p.solution = *sol;
  return p;
}

PuzzleSolution solve_puzzle(ByteView message, std::uint8_t strength) {
  LRS_CHECK_MSG(strength <= 30, "puzzle strength unreasonably high");
  PuzzleSolution out;
  out.strength = strength;
  for (std::uint64_t candidate = 0;; ++candidate) {
    if (tail_zero_bits(puzzle_hash(message, candidate), strength)) {
      out.solution = candidate;
      return out;
    }
  }
}

bool verify_puzzle(ByteView message, const PuzzleSolution& s) {
  if (s.strength > 30) return false;
  return tail_zero_bits(puzzle_hash(message, s.solution), s.strength);
}

}  // namespace lrs::crypto
