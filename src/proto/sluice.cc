#include "proto/sluice.h"

#include <algorithm>
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
      : SignedImageState(params, root_pk, 0, page_shape(params),
                         page_shape(params)) {
    LRS_CHECK_MSG(params_.k * params_.payload_size > crypto::kPacketHashSize,
                  "page too small to embed the next page's hash");
  }

  SluiceState(const CommonParams& params, const Bytes& image,
              crypto::MultiKeySigner& signer)
      : SluiceState(params, signer.root_public_key()) {
    build_from_image(image, signer);
  }

  // --- receiver --------------------------------------------------------------

  Bytes assemble_image() const override {
    return store_.assemble(signed_layout(mid_capacity(), last_capacity()), 0);
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m,
                     RxDigestMemo*) override {
    if (!store_.is_frontier(page)) return DataStatus::kStale;
    if (index >= params_.k || payload.size() != params_.payload_size) {
      return DataStatus::kRejected;
    }
    // Deferred authentication: anything well-formed is buffered. A forged
    // packet occupies the slot and even displaces the genuine one.
    if (store_.holds(index)) return DataStatus::kStale;
    store_.put(index, payload);
    if (!store_.page_full()) return DataStatus::kStored;

    // Page assembled: NOW it can finally be checked as a whole.
    m.hash_verifications += 1;
    if (!crypto::equal(crypto::packet_hash(store_.page(page)),
                       expected_hash(page))) {
      // Poisoned — no way to tell which packet; discard everything.
      m.auth_failures += 1;
      m.page_discards += 1;
      store_.drop_page();
      return DataStatus::kRejected;
    }
    store_.advance();
    return image_complete() ? DataStatus::kImageComplete
                            : DataStatus::kPageComplete;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics&,
                            RxDigestMemo*) const override {
    // A completed page's packets can be checked by byte comparison.
    if (page >= pages_complete() || index >= params_.k) return false;
    const ByteView held = store_.packet(page, index);
    return held.size() == payload.size() &&
           std::equal(payload.begin(), payload.end(), held.begin());
  }

  // --- sender ----------------------------------------------------------------

  std::optional<Bytes> packet_payload(std::uint32_t page,
                                      std::uint32_t index) override {
    if (page >= pages_complete() || index >= params_.k) return std::nullopt;
    const ByteView packet = store_.packet(page, index);
    return Bytes(packet.begin(), packet.end());
  }

  std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    return make_union_scheduler(packets_in_page(page));
  }

 private:
  /// Packet j of a page is its j-th block: the image slice, then (below
  /// the last page) the next page's hash.
  static PageShape page_shape(const CommonParams& params) {
    return {params.k, params.payload_size, params.k};
  }
  std::size_t mid_capacity() const {
    return params_.k * params_.payload_size - crypto::kPacketHashSize;
  }
  std::size_t last_capacity() const {
    return params_.k * params_.payload_size;
  }

  /// H(serialized page `page`): the signed root for page 0, otherwise the
  /// tail of the verified page before it.
  crypto::PacketHash expected_hash(std::uint32_t page) const {
    if (page == 0) return root_;
    const ByteView prev = store_.page(page - 1);
    return crypto::read_packet_hash(prev,
                                    prev.size() - crypto::kPacketHashSize);
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
      next_hash = crypto::packet_hash(view(content));
      serialized[p - 1] = std::move(content);
    }

    sign(g, image.size(), next_hash, signer);  // the root is H(page 1)
    for (std::uint32_t p = 0; p < g; ++p) {
      store_.buffer(p) = std::move(serialized[p]);
    }
    store_.complete_all();
  }
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
