// Merkle hash tree over the encoded packets of the hash page (paper Fig. 2).
//
// The base station builds a depth-d binary tree over n0 = 2^d leaves; every
// page-0 packet carries its leaf's authentication path (the d sibling node
// values from leaf to root), so a receiver that knows only the signed root
// can authenticate any page-0 packet immediately on arrival.
//
// Node values are truncated to kPacketHashSize bytes — the auth path rides in
// every page-0 packet and its length is what the paper's byte accounting
// charges. Leaves and internal nodes are domain-separated to prevent
// second-preimage splicing between levels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "crypto/hash.h"
#include "util/types.h"

namespace lrs::crypto {

class MerkleTree {
 public:
  /// Builds a tree over `leaves` (each leaf is the full packet content it
  /// authenticates). The leaf count must be a power of two >= 1; callers pad
  /// with empty leaves if necessary.
  static MerkleTree build(const std::vector<Bytes>& leaves);
  /// The same tree over `leaf_count` equal-size leaves stored back to back
  /// in `leaves` (a contiguous encoded page).
  static MerkleTree build(ByteView leaves, std::size_t leaf_count);

  std::size_t leaf_count() const { return leaf_count_; }
  std::size_t depth() const { return depth_; }
  const PacketHash& root() const { return nodes_[1]; }

  /// Sibling node values along the path from leaf `index` to the root,
  /// ordered leaf-level first. Size == depth().
  std::vector<PacketHash> auth_path(std::size_t index) const;

  /// Recomputes the root implied by (`leaf_data`, `index`, `path`).
  /// A packet is authentic iff this equals the signed root.
  static PacketHash compute_root(ByteView leaf_data, std::size_t index,
                                 std::span<const PacketHash> path);
  /// The same over a serialized path: sibling node values back to back,
  /// leaf level first, as a page-0 packet carries them. Allocation-free.
  static PacketHash compute_root(ByteView leaf_data, std::size_t index,
                                 ByteView path);

  /// Hash of a leaf's content (domain-separated).
  static PacketHash leaf_hash(ByteView leaf_data);
  /// Hash of two child node values (domain-separated).
  static PacketHash node_hash(const PacketHash& left, const PacketHash& right);

 private:
  MerkleTree() = default;
  static MerkleTree build_views(std::span<const ByteView> leaves);

  std::size_t leaf_count_ = 0;
  std::size_t depth_ = 0;
  // Heap layout: nodes_[1] is the root, children of i are 2i and 2i+1,
  // leaves occupy [leaf_count_, 2*leaf_count_).
  std::vector<PacketHash> nodes_;
};

}  // namespace lrs::crypto
