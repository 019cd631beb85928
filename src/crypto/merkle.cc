#include "crypto/merkle.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/check.h"

namespace lrs::crypto {

namespace {
constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kNodeTag = 0x01;
}  // namespace

PacketHash MerkleTree::leaf_hash(ByteView leaf_data) {
  const Sha256Digest full = Sha256::hash(ByteView(&kLeafTag, 1), leaf_data);
  PacketHash out;
  std::copy_n(full.begin(), kPacketHashSize, out.begin());
  return out;
}

PacketHash MerkleTree::node_hash(const PacketHash& left,
                                 const PacketHash& right) {
  std::array<std::uint8_t, 1 + 2 * kPacketHashSize> buf{};
  buf[0] = kNodeTag;
  std::copy(left.begin(), left.end(), buf.begin() + 1);
  std::copy(right.begin(), right.end(), buf.begin() + 1 + kPacketHashSize);
  return packet_hash(ByteView(buf));
}

MerkleTree MerkleTree::build(const std::vector<Bytes>& leaves) {
  std::vector<ByteView> views(leaves.begin(), leaves.end());
  return build_views(views);
}

MerkleTree MerkleTree::build(ByteView leaves, std::size_t leaf_count) {
  LRS_CHECK(leaf_count != 0 && leaves.size() % leaf_count == 0);
  const std::size_t size = leaves.size() / leaf_count;
  std::vector<ByteView> views(leaf_count);
  for (std::size_t i = 0; i < leaf_count; ++i)
    views[i] = leaves.subspan(i * size, size);
  return build_views(views);
}

MerkleTree MerkleTree::build_views(std::span<const ByteView> leaves) {
  LRS_CHECK_MSG(!leaves.empty(), "Merkle tree needs at least one leaf");
  LRS_CHECK_MSG(std::has_single_bit(leaves.size()),
                "Merkle leaf count must be a power of two");

  MerkleTree t;
  t.leaf_count_ = leaves.size();
  t.depth_ = static_cast<std::size_t>(std::countr_zero(leaves.size()));
  t.nodes_.resize(2 * t.leaf_count_);

  // Leaf level: tag every leaf into one arena, then hash the whole level
  // in one batch call so the multi-buffer kernels see same-length runs.
  {
    std::size_t total = 0;
    for (const ByteView leaf : leaves) total += 1 + leaf.size();
    Bytes tagged;
    tagged.reserve(total);
    for (const ByteView leaf : leaves) {
      tagged.push_back(kLeafTag);
      tagged.insert(tagged.end(), leaf.begin(), leaf.end());
    }
    std::vector<ByteView> views(t.leaf_count_);
    std::size_t off = 0;
    for (std::size_t i = 0; i < t.leaf_count_; ++i) {
      views[i] = ByteView(tagged).subspan(off, 1 + leaves[i].size());
      off += views[i].size();
    }
    packet_hash_batch(views.data(), t.leaf_count_,
                      t.nodes_.data() + t.leaf_count_);
  }

  // Internal levels, bottom-up one level at a time: nodes [w, 2w) feed
  // nodes [w/2, w), and every preimage at a level has the same 17-byte
  // shape, so each level is one uniform batch out of one arena.
  constexpr std::size_t kPre = 1 + 2 * kPacketHashSize;
  Bytes pre(t.leaf_count_ / 2 * kPre);
  std::vector<ByteView> pre_views(t.leaf_count_ / 2);
  for (std::size_t width = t.leaf_count_ / 2; width >= 1; width /= 2) {
    for (std::size_t i = 0; i < width; ++i) {
      std::uint8_t* buf = pre.data() + i * kPre;
      const std::size_t node = width + i;
      buf[0] = kNodeTag;
      std::copy_n(t.nodes_[2 * node].begin(), kPacketHashSize, buf + 1);
      std::copy_n(t.nodes_[2 * node + 1].begin(), kPacketHashSize,
                  buf + 1 + kPacketHashSize);
      pre_views[i] = ByteView(buf, kPre);
    }
    packet_hash_batch(pre_views.data(), width, t.nodes_.data() + width);
  }
  return t;
}

std::vector<PacketHash> MerkleTree::auth_path(std::size_t index) const {
  LRS_CHECK(index < leaf_count_);
  std::vector<PacketHash> path;
  path.reserve(depth_);
  std::size_t node = leaf_count_ + index;
  while (node > 1) {
    path.push_back(nodes_[node ^ 1]);  // sibling
    node /= 2;
  }
  return path;
}

PacketHash MerkleTree::compute_root(ByteView leaf_data, std::size_t index,
                                    std::span<const PacketHash> path) {
  static_assert(sizeof(PacketHash) == kPacketHashSize);
  return compute_root(
      leaf_data, index,
      ByteView(path.empty() ? nullptr : path.front().data(),
               path.size() * kPacketHashSize));
}

PacketHash MerkleTree::compute_root(ByteView leaf_data, std::size_t index,
                                    ByteView path) {
  LRS_CHECK(path.size() % kPacketHashSize == 0);
  PacketHash h = leaf_hash(leaf_data);
  for (std::size_t off = 0; off < path.size(); off += kPacketHashSize) {
    const PacketHash sib = read_packet_hash(path, off);
    h = (index & 1) ? node_hash(sib, h) : node_hash(h, sib);
    index >>= 1;
  }
  return h;
}

}  // namespace lrs::crypto
