#include "proto/seluge.h"

#include <optional>
#include <vector>

#include "crypto/merkle.h"
#include "proto/auth.h"
#include "proto/layout.h"
#include "proto/packet.h"
#include "util/check.h"

namespace lrs::proto {

namespace {

/// M0 = h_{1,1} || ... || h_{1,k}: the hash page's content.
std::size_t hash_page_bytes(const CommonParams& params) {
  return params.k * crypto::kPacketHashSize;
}
std::size_t hash_page_chunks(const CommonParams& params) {
  return (hash_page_bytes(params) + params.payload_size - 1) /
         params.payload_size;
}
std::size_t merkle_depth(const CommonParams& params) {
  const std::size_t leaves = next_pow2(hash_page_chunks(params));
  std::size_t d = 0;
  while ((std::size_t{1} << d) < leaves) ++d;
  return d;
}

/// Page 0 is M0 in chunks of one payload, each served with its Merkle
/// authentication path.
PageShape hash_page_shape(const CommonParams& params) {
  LRS_CHECK_MSG(params.payload_size > crypto::kPacketHashSize,
                "payload must fit a block plus an embedded hash");
  const std::size_t chunks = hash_page_chunks(params);
  return {chunks,
          params.payload_size + merkle_depth(params) * crypto::kPacketHashSize,
          chunks};
}

class SelugeState final : public SignedImageState {
 public:
  /// Receiver: empty until the signature packet verifies. Content packets
  /// are a data block plus (below the last page) the next page's packet
  /// hash.
  SelugeState(const CommonParams& params, const crypto::PacketHash& root_pk)
      : SignedImageState(params, root_pk, 1, hash_page_shape(params),
                         {params.k, params.payload_size, params.k}) {}

  /// Base station: preprocess + sign.
  SelugeState(const CommonParams& params, const Bytes& image,
              crypto::MultiKeySigner& signer)
      : SelugeState(params, signer.root_public_key()) {
    build_from_image(image, signer);
  }

  // --- receiver --------------------------------------------------------------

  Bytes assemble_image() const override {
    LRS_CHECK_MSG(image_complete(), "image not complete yet");
    // Hash images interleave with the data, so each packet contributes
    // only its leading data bytes.
    const PageLayout layout = signed_layout(mid_capacity(), last_capacity());
    Bytes image(layout.image_size, 0);
    const std::size_t g = meta_->content_pages;
    for (std::uint32_t p = 1; p <= g; ++p) {
      Bytes slice;
      const std::size_t data_len = p < g
                                       ? params_.payload_size -
                                             crypto::kPacketHashSize
                                       : params_.payload_size;
      for (std::uint32_t j = 0; j < params_.k; ++j) {
        const ByteView packet = store_.packet(p, j);
        slice.insert(slice.end(), packet.begin(),
                     packet.begin() + static_cast<std::ptrdiff_t>(data_len));
      }
      slice.resize(p < g ? layout.mid_capacity : layout.last_capacity);
      place_slice(image, layout, p, view(slice));
    }
    return image;
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m,
                     RxDigestMemo* dig) override {
    if (!store_.is_frontier(page)) return DataStatus::kStale;
    if (!well_formed(page, index, payload)) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    if (store_.holds(index)) return DataStatus::kStale;
    if (!authentic(page, index, payload, m, dig)) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    store_.put(index, payload);
    if (!store_.page_full()) return DataStatus::kStored;

    if (page == 0) finish_hash_page();
    store_.advance();
    return image_complete() ? DataStatus::kImageComplete
                            : DataStatus::kPageComplete;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics& m,
                            RxDigestMemo* dig) const override {
    return page < pages_complete() && well_formed(page, index, payload) &&
           authentic(page, index, payload, m, dig);
  }

  // --- sender ----------------------------------------------------------------

  std::optional<Bytes> packet_payload(std::uint32_t page,
                                      std::uint32_t index) override {
    if (page >= pages_complete() || index >= packets_in_page(page)) {
      return std::nullopt;
    }
    const ByteView packet = store_.packet(page, index);
    return Bytes(packet.begin(), packet.end());
  }

  std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    return make_union_scheduler(packets_in_page(page));
  }

 private:
  // --- geometry helpers -------------------------------------------------------

  /// An index the page has, and a payload of the page's packet size (a
  /// chunk plus its Merkle path on page 0).
  bool well_formed(std::uint32_t page, std::uint32_t index,
                   ByteView payload) const {
    return index < packets_in_page(page) &&
           payload.size() == store_.stride(page);
  }
  std::size_t mid_capacity() const {
    return params_.k * (params_.payload_size - crypto::kPacketHashSize);
  }
  std::size_t last_capacity() const {
    return params_.k * params_.payload_size;
  }

  // --- authentication -----------------------------------------------------------

  /// The per-packet check of a well-sized packet: a Merkle path to the
  /// signed root on page 0 (depth + 1 hashes), else one hash against the
  /// hash image the previous page carried.
  bool authentic(std::uint32_t page, std::uint32_t index, ByteView payload,
                 sim::NodeMetrics& m, RxDigestMemo* dig) const {
    if (page == 0) {
      m.hash_verifications += merkle_depth(params_) + 1;
      return merkle_path_matches(payload, params_.payload_size, index, root_,
                                 dig);
    }
    m.hash_verifications += 1;
    return packet_hash_matches(params_.version, page, index, payload,
                               hash_image(page, index), dig);
  }

  /// h_{page, index}: M0 carries page 1's, and packet (page - 1, index)
  /// carries page `page`'s in its trailing bytes.
  crypto::PacketHash hash_image(std::uint32_t page,
                                std::uint32_t index) const {
    if (page == 1) {
      return crypto::read_packet_hash(view(m0_),
                                      index * crypto::kPacketHashSize);
    }
    return crypto::read_packet_hash(
        store_.packet(page - 1, index),
        params_.payload_size - crypto::kPacketHashSize);
  }

  /// Reassembles M0 from the chunks of the complete hash page.
  void finish_hash_page() {
    m0_.clear();
    for (std::uint32_t j = 0; j < store_.slots(0); ++j) {
      const ByteView packet = store_.packet(0, j);
      m0_.insert(m0_.end(), packet.begin(),
                 packet.begin() +
                     static_cast<std::ptrdiff_t>(params_.payload_size));
    }
    m0_.resize(hash_page_bytes(params_));
  }

  // --- build (base station) ----------------------------------------------------

  void build_from_image(const Bytes& image, crypto::MultiKeySigner& signer) {
    const PageLayout layout =
        compute_layout(image.size(), mid_capacity(), last_capacity());
    const std::size_t g = layout.content_pages;

    // Construct packets in reverse page order so hashes chain forward.
    std::vector<Bytes> pages(g);  // content page p's packets, back to back
    std::vector<crypto::PacketHash> next_hashes;  // of page i+1
    for (std::size_t p = g; p >= 1; --p) {
      const Bytes slice = page_slice(view(image), layout, p);
      const std::size_t data_len =
          p < g ? params_.payload_size - crypto::kPacketHashSize
                : params_.payload_size;
      auto blocks = split_blocks(view(slice), params_.k);
      for (std::size_t j = 0; j < params_.k; ++j) {
        LRS_CHECK(blocks[j].size() == data_len);
        if (p < g) crypto::append(blocks[j], next_hashes[j]);
        pages[p - 1].insert(pages[p - 1].end(), blocks[j].begin(),
                            blocks[j].end());
      }
      const std::vector<ByteView> views(blocks.begin(), blocks.end());
      next_hashes = page_packet_hashes(params_.version,
                                       static_cast<std::uint32_t>(p), views);
    }

    // Hash page: M0 = h_{1,1} || ... || h_{1,k}, chunked, Merkle tree.
    Bytes m0;
    for (const auto& h : next_hashes) crypto::append(m0, h);
    const std::size_t chunks = hash_page_chunks(params_);
    auto chunk_blocks = split_fixed(view(m0), params_.payload_size, chunks);

    std::vector<Bytes> leaves = chunk_blocks;
    leaves.resize(next_pow2(chunks));  // pad with empty leaves
    const auto tree = crypto::MerkleTree::build(leaves);
    m0_ = std::move(m0);

    Bytes hash_page;  // chunk || auth path, per packet
    for (std::size_t j = 0; j < chunks; ++j) {
      hash_page.insert(hash_page.end(), chunk_blocks[j].begin(),
                       chunk_blocks[j].end());
      for (const auto& sib : tree.auth_path(j)) crypto::append(hash_page, sib);
    }

    // Sign, and adopt as a fully-populated state.
    sign(g, image.size(), tree.root(), signer);
    store_.buffer(0) = std::move(hash_page);
    for (std::uint32_t p = 1; p <= g; ++p) {
      store_.buffer(p) = std::move(pages[p - 1]);
    }
    store_.complete_all();
  }

  // M0, reassembled once the hash page completes; page 1's hash images.
  Bytes m0_;
};

}  // namespace

std::unique_ptr<SchemeState> make_seluge_source(
    const CommonParams& params, const Bytes& image,
    crypto::MultiKeySigner& signer) {
  return std::make_unique<SelugeState>(params, image, signer);
}

std::unique_ptr<SchemeState> make_seluge_receiver(
    const CommonParams& params, const crypto::PacketHash& root_public_key) {
  return std::make_unique<SelugeState>(params, root_public_key);
}

}  // namespace lrs::proto
