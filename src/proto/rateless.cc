#include "proto/rateless.h"

#include <algorithm>
#include <optional>

#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "proto/layout.h"
#include "proto/page_store.h"
#include "util/check.h"
#include "util/rng.h"

namespace lrs::proto {

namespace {

std::uint64_t coeff_seed(std::uint64_t base, std::uint32_t page,
                         std::uint32_t index) {
  std::uint64_t z = base ^ (static_cast<std::uint64_t>(page) << 32) ^ index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic coefficient row for encoded packet (page, index):
/// systematic for index < k, pseudorandom dense GF(256) otherwise.
Bytes coefficient_row(std::uint64_t seed, std::size_t k, std::uint32_t page,
                      std::uint32_t index) {
  Bytes row(k, 0);
  if (index < k) {
    row[index] = 1;
    return row;
  }
  Rng rng(coeff_seed(seed, page, index));
  bool nonzero = false;
  do {
    for (auto& c : row) {
      c = static_cast<std::uint8_t>(rng.uniform(256));
      nonzero = nonzero || c != 0;
    }
  } while (!nonzero);
  return row;
}

/// Rateless service: a requester asking for d more packets is satisfied by
/// ANY d fresh combinations, and one fresh packet serves every concurrent
/// requester at once — so the outstanding demand is the max, not the sum.
class FreshScheduler final : public TxScheduler {
 public:
  explicit FreshScheduler(std::size_t window) : window_(window) {}

  void on_snack(NodeId, const BitVec& requested, std::size_t needed) override {
    LRS_CHECK(requested.size() == window_);
    pending_ = std::max(pending_, needed);
  }

  std::optional<std::uint32_t> next_packet() override {
    if (pending_ == 0) return std::nullopt;
    --pending_;
    const std::uint32_t idx = next_;
    next_ = (next_ + 1) % static_cast<std::uint32_t>(window_);
    return idx;
  }

  void on_overheard_data(std::uint32_t) override {
    if (pending_ > 0) --pending_;
  }

  void set_start(std::uint32_t index) override {
    next_ = index % static_cast<std::uint32_t>(window_);
  }

  bool idle() const override { return pending_ == 0; }
  std::size_t backlog() const override { return pending_; }

 private:
  std::size_t window_;
  std::size_t pending_ = 0;
  std::uint32_t next_ = 0;
};

class RatelessState final : public PagedScheme {
 public:
  /// Any of a page's window() encoded packets helps; the k decoded blocks
  /// are the page buffer.
  RatelessState(const CommonParams& params, std::size_t image_size)
      : PagedScheme(page_shape(params), page_shape(params)),
        params_(params),
        layout_(compute_layout(image_size, page_capacity(), page_capacity())) {
    store_.open(layout_.content_pages);
    restart_decoder();
  }

  RatelessState(const CommonParams& params, const Bytes& image)
      : RatelessState(params, image.size()) {
    for (std::uint32_t p = 1; p <= layout_.content_pages; ++p) {
      store_.buffer(p - 1) = page_slice(view(image), layout_, p);
    }
    store_.complete_all();
  }

  Version version() const override { return params_.version; }
  std::size_t decode_threshold(std::uint32_t) const override {
    return params_.k;
  }

  Bytes assemble_image() const override {
    return store_.assemble(layout_, 0);
  }

  void on_reboot() override {
    // Decoded pages persist; the partial elimination state is RAM.
    if (image_complete()) return;
    PagedScheme::on_reboot();
    restart_decoder();
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m,
                     RxDigestMemo*) override {
    if (!store_.is_frontier(page)) return DataStatus::kStale;
    if (index >= window() || payload.size() != params_.payload_size) {
      return DataStatus::kRejected;
    }
    if (store_.holds(index)) return DataStatus::kStale;
    store_.mark(index);
    // NO authentication: any well-formed combination enters the decoder —
    // exactly the exposure LR-Seluge eliminates.
    const Bytes row =
        coefficient_row(params_.code_seed, params_.k, page + 1, index);
    const bool innovative = eliminator_->add(view(row), payload);
    if (!innovative) return DataStatus::kStale;
    if (eliminator_->complete()) {
      m.decode_operations += 1;
      eliminator_->solve(store_.buffer(page));
      store_.advance();
      restart_decoder();
      return image_complete() ? DataStatus::kImageComplete
                              : DataStatus::kPageComplete;
    }
    return DataStatus::kStored;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics&,
                            RxDigestMemo*) const override {
    return page < pages_complete() && index < window() &&
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
    if (page >= pages_complete() || index >= window()) return std::nullopt;
    if (index < params_.k) {
      const ByteView block = store_.packet(page, index);
      return Bytes(block.begin(), block.end());
    }
    const Bytes row =
        coefficient_row(params_.code_seed, params_.k, page + 1, index);
    Bytes out(params_.payload_size, 0);
    for (std::uint32_t j = 0; j < params_.k; ++j) {
      erasure::Gf256::addmul(MutByteView(out.data(), out.size()),
                             store_.packet(page, j), row[j]);
    }
    return out;
  }

  std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t) const override {
    return std::make_unique<FreshScheduler>(window());
  }

 private:
  static PageShape page_shape(const CommonParams& params) {
    return {kRatelessWindowFactor * params.k, params.payload_size, params.k};
  }
  std::size_t page_capacity() const {
    return params_.k * params_.payload_size;
  }
  std::size_t window() const { return kRatelessWindowFactor * params_.k; }

  void restart_decoder() {
    eliminator_ = std::make_unique<erasure::Gf256Eliminator>(
        params_.k, params_.payload_size);
  }

  CommonParams params_;
  PageLayout layout_;
  std::unique_ptr<erasure::Gf256Eliminator> eliminator_;
};

}  // namespace

std::unique_ptr<SchemeState> make_rateless_source(const CommonParams& params,
                                                  const Bytes& image) {
  return std::make_unique<RatelessState>(params, image);
}

std::unique_ptr<SchemeState> make_rateless_receiver(
    const CommonParams& params, std::size_t image_size) {
  return std::make_unique<RatelessState>(params, image_size);
}

}  // namespace lrs::proto
