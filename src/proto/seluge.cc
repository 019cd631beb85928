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

class SelugeState final : public SignedImageState {
 public:
  /// Receiver: empty until the signature packet verifies.
  SelugeState(const CommonParams& params, const crypto::PacketHash& root_pk)
      : SignedImageState(params, root_pk) {
    LRS_CHECK_MSG(params_.payload_size > crypto::kPacketHashSize,
                  "payload must fit a block plus an embedded hash");
  }

  /// Base station: preprocess + sign.
  SelugeState(const CommonParams& params, const Bytes& image,
              crypto::MultiKeySigner& signer)
      : SelugeState(params, signer.root_public_key()) {
    build_from_image(image, signer);
  }

  // --- geometry --------------------------------------------------------------

  std::uint32_t num_pages() const override {
    return meta_ ? meta_->content_pages + 1 : 0;
  }

  std::size_t packets_in_page(std::uint32_t page) const override {
    return page == 0 ? hash_page_chunks() : params_.k;
  }

  std::size_t decode_threshold(std::uint32_t page) const override {
    return packets_in_page(page);  // ARQ: every packet is required
  }

  // --- receiver --------------------------------------------------------------

  std::uint32_t pages_complete() const override { return complete_pages_; }

  bool image_complete() const override {
    return meta_ && complete_pages_ == meta_->content_pages + 1;
  }

  Bytes assemble_image() const override {
    LRS_CHECK_MSG(image_complete(), "image not complete yet");
    const PageLayout layout = signed_layout(mid_capacity(), last_capacity());
    Bytes image(layout.image_size, 0);
    const std::size_t g = meta_->content_pages;
    for (std::size_t p = 1; p <= g; ++p) {
      Bytes slice;
      const std::size_t data_len = p < g
                                       ? params_.payload_size -
                                             crypto::kPacketHashSize
                                       : params_.payload_size;
      for (const auto& payload : content_pages_[p - 1]) {
        slice.insert(slice.end(), payload->begin(),
                     payload->begin() + static_cast<std::ptrdiff_t>(data_len));
      }
      slice.resize(p < g ? layout.mid_capacity : layout.last_capacity);
      place_slice(image, layout, p, view(slice));
    }
    return image;
  }

  BitVec request_bits(std::uint32_t page) const override {
    const std::size_t count = packets_in_page(page);
    BitVec bits(count);
    if (!meta_) return bits;
    if (page == 0) {
      for (std::size_t j = 0; j < count; ++j) {
        if (!hash_page_packets_[j].has_value()) bits.set(j);
      }
      return bits;
    }
    if (page > meta_->content_pages) return bits;
    const auto& pkts = content_pages_[page - 1];
    for (std::size_t j = 0; j < count; ++j) {
      if (!pkts[j].has_value()) bits.set(j);
    }
    return bits;
  }

  std::size_t buffered_packets() const override {
    if (!meta_ || image_complete()) return 0;
    std::size_t n = 0;
    if (complete_pages_ == 0) {
      for (const auto& slot : hash_page_packets_) n += slot.has_value();
    } else {
      for (const auto& slot : content_pages_[complete_pages_ - 1]) {
        n += slot.has_value();
      }
    }
    return n;
  }

  void on_reboot() override {
    // Every buffered packet here already passed per-packet authentication,
    // but it still lives in RAM until the page completes and is flushed.
    if (!meta_ || image_complete()) return;
    if (complete_pages_ == 0) {
      for (auto& slot : hash_page_packets_) slot.reset();
    } else {
      for (auto& slot : content_pages_[complete_pages_ - 1]) slot.reset();
    }
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m) override {
    return on_data(page, index, payload, m, nullptr);
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m,
                     RxDigestMemo* dig) override {
    if (!meta_) return DataStatus::kStale;  // cannot authenticate yet
    if (page != complete_pages_ || page > meta_->content_pages) {
      return DataStatus::kStale;
    }
    return page == 0 ? on_hash_page_data(index, payload, m, dig)
                     : on_content_data(page, index, payload, m, dig);
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload,
                            sim::NodeMetrics& m) const override {
    return verify_stored_packet(page, index, payload, m, nullptr);
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics& m,
                            RxDigestMemo* dig) const override {
    if (!meta_ || page >= complete_pages_) return false;
    if (page == 0) {
      if (index >= hash_page_chunks() || !hash_page_sized(payload)) {
        return false;
      }
      m.hash_verifications += merkle_depth() + 1;
      return merkle_path_matches(payload, params_.payload_size, index, root_,
                                 dig);
    }
    if (index >= params_.k || payload.size() != params_.payload_size)
      return false;
    m.hash_verifications += 1;
    return packet_hash_matches(params_.version, page, index, payload,
                               expected_hashes_[page][index], dig);
  }

  // --- sender ----------------------------------------------------------------

  std::optional<Bytes> packet_payload(std::uint32_t page,
                                      std::uint32_t index) override {
    if (!meta_ || page >= complete_pages_) return std::nullopt;
    if (page == 0) {
      if (index >= hash_page_packets_.size()) return std::nullopt;
      return hash_page_packets_[index];
    }
    if (index >= params_.k) return std::nullopt;
    return content_pages_[page - 1][index];
  }

  std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    return make_union_scheduler(packets_in_page(page));
  }

 private:
  // --- geometry helpers -------------------------------------------------------

  std::size_t hash_page_bytes() const {
    return params_.k * crypto::kPacketHashSize;
  }
  std::size_t hash_page_chunks() const {
    return (hash_page_bytes() + params_.payload_size - 1) /
           params_.payload_size;
  }
  std::size_t merkle_depth() const {
    std::size_t leaves = next_pow2(hash_page_chunks());
    std::size_t d = 0;
    while ((std::size_t{1} << d) < leaves) ++d;
    return d;
  }

  /// Page-0 packets are a chunk plus its Merkle authentication path.
  bool hash_page_sized(ByteView payload) const {
    return payload.size() ==
           params_.payload_size + merkle_depth() * crypto::kPacketHashSize;
  }
  std::size_t mid_capacity() const {
    return params_.k * (params_.payload_size - crypto::kPacketHashSize);
  }
  std::size_t last_capacity() const {
    return params_.k * params_.payload_size;
  }

  void adopt_meta(const SignedMeta& meta,
                  const crypto::PacketHash& root) override {
    LRS_CHECK(meta.content_pages >= 1 && meta.image_size >= 1);
    meta_ = meta;
    root_ = root;
    hash_page_packets_.assign(hash_page_chunks(), std::nullopt);
    content_pages_.assign(meta.content_pages, {});
    for (auto& page : content_pages_)
      page.assign(params_.k, std::nullopt);
    expected_hashes_.assign(meta.content_pages + 1, {});
  }

  // --- receive paths ----------------------------------------------------------

  DataStatus on_hash_page_data(std::uint32_t index, ByteView payload,
                               sim::NodeMetrics& m, RxDigestMemo* dig) {
    if (index >= hash_page_chunks() || !hash_page_sized(payload)) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    if (hash_page_packets_[index].has_value()) return DataStatus::kStale;

    m.hash_verifications += merkle_depth() + 1;
    if (!merkle_path_matches(payload, params_.payload_size, index, root_,
                             dig)) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    hash_page_packets_[index] = Bytes(payload.begin(), payload.end());

    if (request_bits(0).none()) {
      finish_hash_page();
      ++complete_pages_;
      return DataStatus::kPageComplete;
    }
    return DataStatus::kStored;
  }

  void finish_hash_page() {
    // Reassemble M0 = h_{1,1} || ... || h_{1,k} and index it.
    Bytes m0;
    for (const auto& p : hash_page_packets_) {
      m0.insert(m0.end(), p->begin(),
                p->begin() + static_cast<std::ptrdiff_t>(params_.payload_size));
    }
    m0.resize(hash_page_bytes());
    auto& hashes = expected_hashes_[1];
    hashes.clear();
    for (std::size_t j = 0; j < params_.k; ++j) {
      hashes.push_back(
          crypto::read_packet_hash(view(m0), j * crypto::kPacketHashSize));
    }
  }

  DataStatus on_content_data(std::uint32_t page, std::uint32_t index,
                             ByteView payload, sim::NodeMetrics& m,
                             RxDigestMemo* dig) {
    if (index >= params_.k || payload.size() != params_.payload_size) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    auto& slot = content_pages_[page - 1][index];
    if (slot.has_value()) return DataStatus::kStale;

    m.hash_verifications += 1;
    if (!packet_hash_matches(params_.version, page, index, payload,
                             expected_hashes_[page][index], dig)) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    slot = Bytes(payload.begin(), payload.end());

    if (request_bits(page).none()) {
      if (page < meta_->content_pages) extract_next_hashes(page);
      ++complete_pages_;
      return image_complete() ? DataStatus::kImageComplete
                              : DataStatus::kPageComplete;
    }
    return DataStatus::kStored;
  }

  void extract_next_hashes(std::uint32_t page) {
    // Packet (page, j) carries h_{page+1, j} in its trailing bytes.
    auto& hashes = expected_hashes_[page + 1];
    hashes.clear();
    for (std::size_t j = 0; j < params_.k; ++j) {
      const auto& payload = content_pages_[page - 1][j];
      hashes.push_back(crypto::read_packet_hash(
          view(*payload), params_.payload_size - crypto::kPacketHashSize));
    }
  }

  // --- build (base station) ----------------------------------------------------

  void build_from_image(const Bytes& image, crypto::MultiKeySigner& signer) {
    const PageLayout layout =
        compute_layout(image.size(), mid_capacity(), last_capacity());
    const std::size_t g = layout.content_pages;

    // Construct packets in reverse page order so hashes chain forward.
    std::vector<std::vector<Bytes>> payloads(g);
    std::vector<crypto::PacketHash> next_hashes;  // of page i+1
    for (std::size_t p = g; p >= 1; --p) {
      const Bytes slice = page_slice(view(image), layout, p);
      const std::size_t data_len =
          p < g ? params_.payload_size - crypto::kPacketHashSize
                : params_.payload_size;
      auto blocks = split_blocks(view(slice), params_.k);
      std::vector<ByteView> views(params_.k);
      for (std::size_t j = 0; j < params_.k; ++j) {
        LRS_CHECK(blocks[j].size() == data_len);
        if (p < g) crypto::append(blocks[j], next_hashes[j]);
        views[j] = view(blocks[j]);
      }
      next_hashes = page_packet_hashes(params_.version,
                                       static_cast<std::uint32_t>(p), views);
      payloads[p - 1] = std::move(blocks);
    }

    // Hash page: M0 = h_{1,1} || ... || h_{1,k}, chunked, Merkle tree.
    Bytes m0;
    for (const auto& h : next_hashes) crypto::append(m0, h);
    const std::size_t chunks = hash_page_chunks();
    auto chunk_blocks = split_fixed(view(m0), params_.payload_size, chunks);

    std::vector<Bytes> leaves = chunk_blocks;
    leaves.resize(next_pow2(chunks));  // pad with empty leaves
    const auto tree = crypto::MerkleTree::build(leaves);

    std::vector<Bytes> hash_page_payloads(chunks);
    for (std::size_t j = 0; j < chunks; ++j) {
      Bytes payload = chunk_blocks[j];
      for (const auto& sib : tree.auth_path(j)) crypto::append(payload, sib);
      hash_page_payloads[j] = std::move(payload);
    }

    // Sign, and adopt as a fully-populated state.
    sign(g, image.size(), tree.root(), signer);
    for (std::size_t j = 0; j < chunks; ++j)
      hash_page_packets_[j] = std::move(hash_page_payloads[j]);
    finish_hash_page();
    for (std::size_t p = 1; p <= g; ++p) {
      for (std::size_t j = 0; j < params_.k; ++j)
        content_pages_[p - 1][j] = std::move(payloads[p - 1][j]);
      if (p < g) extract_next_hashes(static_cast<std::uint32_t>(p));
    }
    complete_pages_ = static_cast<std::uint32_t>(g + 1);
  }

  crypto::PacketHash root_{};

  // Received/held packet payloads (hash page keeps chunk || auth path).
  std::vector<std::optional<Bytes>> hash_page_packets_;
  std::vector<std::vector<std::optional<Bytes>>> content_pages_;
  // expected_hashes_[i][j] = h_{i,j}; index 0 unused.
  std::vector<std::vector<crypto::PacketHash>> expected_hashes_;
  std::uint32_t complete_pages_ = 0;
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
