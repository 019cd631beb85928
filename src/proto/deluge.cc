#include "proto/deluge.h"

#include <optional>

#include "proto/layout.h"
#include "proto/page_store.h"
#include "util/check.h"

namespace lrs::proto {

namespace {

class DelugeState final : public PagedScheme {
 public:
  DelugeState(const CommonParams& params, std::size_t image_size)
      : PagedScheme(page_shape(params), page_shape(params)),
        params_(params),
        layout_(compute_layout(image_size, page_capacity(), page_capacity())) {
    store_.open(layout_.content_pages);
  }

  /// Base-station constructor: pre-populates every page.
  DelugeState(const CommonParams& params, const Bytes& image)
      : DelugeState(params, image.size()) {
    for (std::uint32_t p = 1; p <= layout_.content_pages; ++p) {
      store_.buffer(p - 1) = page_slice(view(image), layout_, p);
    }
    store_.complete_all();
  }

  Version version() const override { return params_.version; }

  Bytes assemble_image() const override {
    return store_.assemble(layout_, 0);
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics&,
                     RxDigestMemo*) override {
    if (!store_.is_frontier(page)) return DataStatus::kStale;
    if (index >= params_.k) return DataStatus::kRejected;
    // No authentication whatsoever: only shape is checked.
    if (payload.size() != params_.payload_size) return DataStatus::kRejected;
    if (store_.holds(index)) return DataStatus::kStale;
    store_.put(index, payload);

    if (store_.page_full()) {
      store_.advance();
      return image_complete() ? DataStatus::kImageComplete
                              : DataStatus::kPageComplete;
    }
    return DataStatus::kStored;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics&,
                            RxDigestMemo*) const override {
    // Deluge has no packet authentication; only shape is checked.
    return page < pages_complete() && index < params_.k &&
           payload.size() == params_.payload_size;
  }

  bool needs_signature() const override { return false; }
  bool bootstrapped() const override { return true; }
  bool on_signature(ByteView, sim::NodeMetrics&) override { return false; }
  std::optional<Bytes> signature_frame() const override {
    return std::nullopt;
  }

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
  /// Packet j of a page is its j-th block of the image slice.
  static PageShape page_shape(const CommonParams& params) {
    return {params.k, params.payload_size, params.k};
  }
  std::size_t page_capacity() const {
    return params_.k * params_.payload_size;
  }

  CommonParams params_;
  PageLayout layout_;
};

}  // namespace

std::unique_ptr<SchemeState> make_deluge_source(const CommonParams& params,
                                                const Bytes& image) {
  return std::make_unique<DelugeState>(params, image);
}

std::unique_ptr<SchemeState> make_deluge_receiver(const CommonParams& params,
                                                  std::size_t image_size) {
  return std::make_unique<DelugeState>(params, image_size);
}

}  // namespace lrs::proto
