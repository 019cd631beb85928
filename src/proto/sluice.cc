#include "proto/sluice.h"

#include <optional>
#include <vector>

#include "proto/auth.h"
#include "proto/layout.h"
#include "proto/packet.h"
#include "util/check.h"

namespace lrs::proto {

namespace {

class SluiceState final : public SignedImageState {
 public:
  SluiceState(const CommonParams& params, const crypto::PacketHash& root_pk)
      : SignedImageState(params, root_pk) {
    LRS_CHECK_MSG(params_.k * params_.payload_size > crypto::kPacketHashSize,
                  "page too small to embed the next page's hash");
  }

  SluiceState(const CommonParams& params, const Bytes& image,
              crypto::MultiKeySigner& signer)
      : SluiceState(params, signer.root_public_key()) {
    build_from_image(image, signer);
  }

  // --- geometry --------------------------------------------------------------

  std::uint32_t num_pages() const override {
    return meta_ ? meta_->content_pages : 0;
  }
  std::size_t packets_in_page(std::uint32_t) const override {
    return params_.k;
  }
  std::size_t decode_threshold(std::uint32_t) const override {
    return params_.k;
  }

  // --- receiver --------------------------------------------------------------

  std::uint32_t pages_complete() const override { return complete_pages_; }
  bool image_complete() const override {
    return meta_ && complete_pages_ == meta_->content_pages;
  }

  Bytes assemble_image() const override {
    LRS_CHECK_MSG(image_complete(), "image not complete yet");
    const PageLayout layout = signed_layout(mid_capacity(), last_capacity());
    Bytes image(layout.image_size, 0);
    const std::size_t g = meta_->content_pages;
    for (std::size_t p = 1; p <= g; ++p) {
      Bytes content = page_content(p);
      content.resize(p < g ? layout.mid_capacity : layout.last_capacity);
      place_slice(image, layout, p, view(content));
    }
    return image;
  }

  BitVec request_bits(std::uint32_t page) const override {
    BitVec bits(params_.k);
    if (!meta_ || page >= meta_->content_pages) return bits;
    for (std::size_t j = 0; j < params_.k; ++j) {
      if (!pages_[page][j].has_value()) bits.set(j);
    }
    return bits;
  }

  std::size_t buffered_packets() const override {
    if (!meta_ || complete_pages_ >= meta_->content_pages) return 0;
    std::size_t n = 0;
    for (const auto& slot : pages_[complete_pages_]) n += slot.has_value();
    return n;
  }

  void on_reboot() override {
    // Verified pages and the adopted signature metadata persist; the
    // unverified in-progress page buffer does not.
    if (!meta_ || complete_pages_ >= meta_->content_pages) return;
    for (auto& slot : pages_[complete_pages_]) slot.reset();
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m) override {
    if (!meta_) return DataStatus::kStale;
    if (page != complete_pages_ || page >= meta_->content_pages) {
      return DataStatus::kStale;
    }
    if (index >= params_.k || payload.size() != params_.payload_size) {
      return DataStatus::kRejected;
    }
    auto& slot = pages_[page][index];
    // Deferred authentication: anything well-formed is buffered. A forged
    // packet occupies the slot and even displaces the genuine one.
    if (slot.has_value()) return DataStatus::kStale;
    slot = Bytes(payload.begin(), payload.end());
    if (request_bits(page).none()) {
      // Page assembled: NOW it can finally be checked as a whole.
      m.hash_verifications += 1;
      if (!crypto::equal(hash_page_bytes(assemble_page(page)),
                         expected_hashes_[page])) {
        // Poisoned — no way to tell which packet; discard everything.
        m.auth_failures += 1;
        m.page_discards += 1;
        for (auto& s : pages_[page]) s.reset();
        return DataStatus::kRejected;
      }
      // Verified: the page's tail (if any) authenticates the NEXT page.
      if (page + 1 < meta_->content_pages) {
        const Bytes full = assemble_page(page);
        expected_hashes_[page + 1] = crypto::read_packet_hash(
            view(full), full.size() - crypto::kPacketHashSize);
      }
      ++complete_pages_;
      return image_complete() ? DataStatus::kImageComplete
                              : DataStatus::kPageComplete;
    }
    return DataStatus::kStored;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload,
                            sim::NodeMetrics&) const override {
    // A completed page's packets can be checked by byte comparison.
    if (!meta_ || page >= complete_pages_ || index >= params_.k) return false;
    const auto& slot = pages_[page][index];
    return slot.has_value() &&
           view(*slot).size() == payload.size() &&
           std::equal(payload.begin(), payload.end(), slot->begin());
  }

  // --- sender ----------------------------------------------------------------

  std::optional<Bytes> packet_payload(std::uint32_t page,
                                      std::uint32_t index) override {
    if (!meta_ || page >= complete_pages_ || index >= params_.k) {
      return std::nullopt;
    }
    return pages_[page][index];
  }

  std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    return make_union_scheduler(packets_in_page(page));
  }

 private:
  std::size_t mid_capacity() const {
    return params_.k * params_.payload_size - crypto::kPacketHashSize;
  }
  std::size_t last_capacity() const {
    return params_.k * params_.payload_size;
  }

  void adopt_meta(const SignedMeta& meta,
                  const crypto::PacketHash& root) override {
    LRS_CHECK(meta.content_pages >= 1 && meta.image_size >= 1);
    meta_ = meta;
    pages_.assign(meta.content_pages, {});
    for (auto& page : pages_) page.assign(params_.k, std::nullopt);
    expected_hashes_.assign(meta.content_pages, {});
    expected_hashes_[0] = root;  // the signature covers H(page 1)
  }

  /// Full serialized page (k concatenated payloads) from receive buffers.
  Bytes assemble_page(std::uint32_t page) const {
    Bytes out;
    out.reserve(params_.k * params_.payload_size);
    for (const auto& slot : pages_[page]) {
      out.insert(out.end(), slot->begin(), slot->end());
    }
    return out;
  }

  /// Serialized bytes of content page p (1-based); the caller strips the
  /// embedded next-page hash by resizing to the page's image capacity.
  Bytes page_content(std::uint32_t p) const {
    return assemble_page(p - 1);
  }

  static crypto::PacketHash hash_page_bytes(const Bytes& page) {
    return crypto::packet_hash(view(page));
  }

  void build_from_image(const Bytes& image, crypto::MultiKeySigner& signer) {
    const PageLayout layout =
        compute_layout(image.size(), mid_capacity(), last_capacity());
    const std::size_t g = layout.content_pages;

    // Build pages back to front: page p (p < g) = slice || H(page p+1).
    std::vector<Bytes> serialized(g);
    crypto::PacketHash next_hash{};
    for (std::size_t p = g; p >= 1; --p) {
      Bytes content = page_slice(view(image), layout, p);
      if (p < g) crypto::append(content, next_hash);
      LRS_CHECK(content.size() == params_.k * params_.payload_size);
      serialized[p - 1] = content;
      next_hash = hash_page_bytes(content);
    }

    sign(g, image.size(), next_hash, signer);  // the root is H(page 1)
    for (std::size_t p = 1; p <= g; ++p) {
      auto blocks =
          split_fixed(view(serialized[p - 1]), params_.payload_size,
                      params_.k);
      for (std::size_t j = 0; j < params_.k; ++j)
        pages_[p - 1][j] = std::move(blocks[j]);
      if (p < g) {
        // Engine page index p (0-based) = content page p+1, whose hash
        // rides in content page p's tail.
        expected_hashes_[p] = crypto::read_packet_hash(
            view(serialized[p - 1]),
            serialized[p - 1].size() - crypto::kPacketHashSize);
      }
    }
    complete_pages_ = static_cast<std::uint32_t>(g);
  }

  std::vector<std::vector<std::optional<Bytes>>> pages_;
  // expected_hashes_[e] = H(serialized content page e+1): entry 0 comes
  // from the signature, entry e > 0 from the verified tail of page e-1.
  std::vector<crypto::PacketHash> expected_hashes_;
  std::uint32_t complete_pages_ = 0;
};

}  // namespace

std::unique_ptr<SchemeState> make_sluice_source(
    const CommonParams& params, const Bytes& image,
    crypto::MultiKeySigner& signer) {
  return std::make_unique<SluiceState>(params, image, signer);
}

std::unique_ptr<SchemeState> make_sluice_receiver(
    const CommonParams& params, const crypto::PacketHash& root_public_key) {
  return std::make_unique<SluiceState>(params, root_public_key);
}

}  // namespace lrs::proto
