#include "core/lr_image.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/greedy_scheduler.h"
#include "crypto/merkle.h"
#include "erasure/code.h"
#include "proto/auth.h"
#include "proto/layout.h"
#include "proto/packet.h"
#include "util/check.h"

namespace lrs::core {

namespace {

using proto::CommonParams;
using proto::compute_layout;
using proto::DataStatus;
using proto::PageLayout;
using proto::page_slice;
using proto::place_slice;

/// Page-0 blocks: M0 (page 1's n hash images) split into k0 blocks.
std::size_t page0_block_size(const CommonParams& params) {
  return (params.n * crypto::kPacketHashSize + params.k0 - 1) / params.k0;
}

/// Page 0 is served as n0 packets and decodes into k0 blocks of M0; every
/// content page as n packets decoding into k blocks.
proto::PageShape hash_page_shape(const CommonParams& params) {
  validate_lr_params(params);
  return {params.n0, page0_block_size(params), params.k0};
}

class LrSelugeState final : public proto::SignedImageState {
 public:
  /// Receiver: empty until the signature packet verifies.
  LrSelugeState(const CommonParams& params, const crypto::PacketHash& root_pk)
      : SignedImageState(params, root_pk, 1, hash_page_shape(params),
                         {params.n, params.payload_size, params.k}),
        // Cached: every node of a simulation (and every Monte Carlo trial)
        // shares one generator matrix per (codec, geometry, seed) instead of
        // rebuilding it per LrSelugeState.
        code_(erasure::make_code_cached(params.codec, params.k, params.n,
                                        params.delta, params.code_seed)),
        code0_(erasure::make_code_cached(params.codec, params.k0, params.n0,
                                         std::min(params.delta,
                                                  params.n0 - params.k0),
                                         params.code_seed ^ 0x9e3779b9ULL)) {
  }

  /// Base station: preprocess + sign.
  LrSelugeState(const CommonParams& params, const Bytes& image,
                crypto::MultiKeySigner& signer)
      : LrSelugeState(params, signer.root_public_key()) {
    build_from_image(image, signer);
  }

  // --- geometry --------------------------------------------------------------

  /// Every member is value-copyable and the codec instances are shared
  /// through the process-wide cache, so the default copy constructor IS the
  /// cheap clone: the decoded pages (which carry the hash chain), Merkle
  /// root and signature frame are duplicated as bytes, never recomputed, and
  /// no one-time signing key is consumed. Only complete (serving-ready)
  /// states clone — a partially-filled receiver has nothing a fresh cell
  /// could serve.
  std::unique_ptr<proto::SchemeState> clone_source() const override {
    if (!image_complete()) return nullptr;
    return std::make_unique<LrSelugeState>(*this);
  }

  std::size_t decode_threshold(std::uint32_t page) const override {
    return page == 0 ? code0_->decode_threshold() : code_->decode_threshold();
  }

  // --- receiver --------------------------------------------------------------

  Bytes assemble_image() const override {
    return store_.assemble(signed_layout(mid_capacity(), last_capacity()), 1);
  }

  void on_reboot() override {
    // Decoded pages and the verified signature metadata are flash-backed;
    // the partially collected share set and the serve cache are not.
    if (image_complete()) return;
    SignedImageState::on_reboot();
    recycle_shares();
    serve_page_.reset();
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m,
                     proto::RxDigestMemo* dig) override {
    if (!store_.is_frontier(page)) return DataStatus::kStale;
    if (index >= packets_in_page(page)) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    if (store_.holds(index)) return DataStatus::kStale;

    if (page == 0) {
      if (!verify_page0_packet(index, payload, m, dig)) {
        m.auth_failures += 1;
        return DataStatus::kRejected;
      }
      // Keep only the encoded block; auth paths are regenerated on demand.
      store_share(page, index, payload.subspan(0, store_.stride(0)));
    } else {
      m.hash_verifications += 1;
      if (payload.size() != params_.payload_size ||
          !proto::packet_hash_matches(params_.version, page, index, payload,
                                      hash_image(page, index), dig)) {
        m.auth_failures += 1;
        return DataStatus::kRejected;
      }
      store_share(page, index, payload);
    }

    // Enough authenticated packets? Attempt the erasure decode, straight
    // into the page's own buffer, where the data shares already sit.
    if (shares_.size() >= decode_threshold(page)) {
      m.decode_operations += 1;
      const auto& codec = page == 0 ? code0_ : code_;
      if (codec->decode(shares_, store_.buffer(page))) {
        finish_page();
        return image_complete() ? DataStatus::kImageComplete
                                : DataStatus::kPageComplete;
      }
      // Probabilistic code needed more rank; keep collecting.
    }
    return DataStatus::kStored;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics& m,
                            proto::RxDigestMemo* dig) const override {
    if (page >= pages_complete() || index >= packets_in_page(page))
      return false;
    if (page == 0) return verify_page0_packet(index, payload, m, dig);
    if (payload.size() != params_.payload_size) return false;
    m.hash_verifications += 1;
    return proto::packet_hash_matches(params_.version, page, index, payload,
                                      hash_image(page, index), dig);
  }

  // --- sender ----------------------------------------------------------------

  std::optional<Bytes> packet_payload(std::uint32_t page,
                                      std::uint32_t index) override {
    if (page >= pages_complete() || index >= packets_in_page(page)) {
      return std::nullopt;
    }
    const ByteView packet = served_packet(page, index);
    return Bytes(packet.begin(), packet.end());
  }

  std::unique_ptr<proto::TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    if (!params_.lr_greedy_scheduler)
      return proto::make_union_scheduler(packets_in_page(page));
    return make_greedy_scheduler(packets_in_page(page));
  }

 private:
  // --- geometry helpers -------------------------------------------------------

  std::size_t hash_block_bytes() const {
    return params_.n * crypto::kPacketHashSize;  // appended per mid page
  }
  std::size_t merkle_depth() const {
    std::size_t d = 0;
    while ((std::size_t{1} << d) < params_.n0) ++d;
    return d;
  }

  std::size_t mid_capacity() const {
    return params_.k * params_.payload_size - hash_block_bytes();
  }
  std::size_t last_capacity() const {
    return params_.k * params_.payload_size;
  }

  /// Forgets the current page's shares and hands their parity buffers to
  /// spare_.
  void recycle_shares() {
    for (auto& buf : parity_) spare_.push_back(std::move(buf));
    parity_.clear();
    shares_.clear();
  }

  /// Keeps an authenticated share of the frontier page `page` and marks it
  /// held. A data share of a systematic code is written straight into its
  /// own block of the page buffer, where decode reads it in place; any
  /// other share is copied into a buffer recycled from an earlier page, so
  /// a steady-state page costs no share allocations.
  void store_share(std::uint32_t page, std::uint32_t index, ByteView data) {
    const std::size_t k = page == 0 ? params_.k0 : params_.k;
    if (index < k && erasure::codec_is_systematic(params_.codec)) {
      store_.put(index, data);
      shares_.push_back({index, store_.packet(page, index)});
      return;
    }
    Bytes buf;
    if (!spare_.empty()) {
      buf = std::move(spare_.back());
      spare_.pop_back();
    }
    buf.assign(data.begin(), data.end());
    // The view follows the buffer's heap block, which moving the Bytes
    // (parity_ growing) does not relocate.
    shares_.push_back({index, view(buf)});
    parity_.push_back(std::move(buf));
    store_.mark(index);
  }

  // --- verification helpers ----------------------------------------------------

  /// Merkle-path check of a page-0 packet against this node's root; each
  /// receiver charges depth + 1 hash verifications (`dig` shares only the
  /// implied root, never the verdict).
  bool verify_page0_packet(std::uint32_t index, ByteView payload,
                           sim::NodeMetrics& m,
                           proto::RxDigestMemo* dig) const {
    const std::size_t depth = merkle_depth();
    const std::size_t block = store_.stride(0);
    if (payload.size() != block + depth * crypto::kPacketHashSize)
      return false;
    m.hash_verifications += depth + 1;
    return proto::merkle_path_matches(payload, block, index, root_, dig);
  }

  // --- page completion -----------------------------------------------------------

  /// The frontier page has been decoded into its buffer.
  void finish_page() {
    store_.advance();
    recycle_shares();
    if (image_complete()) spare_ = {};
  }

  /// Hash image of packet `index` of content page `page`: M0 (page 0)
  /// carries page 1's n hash images, and every content page below g carries
  /// the next page's after its image slice. Page `page - 1` must be decoded.
  crypto::PacketHash hash_image(std::uint32_t page, std::size_t index) const {
    const ByteView carrier = page == 1
                                 ? store_.page(0)
                                 : store_.page(page - 1).subspan(mid_capacity());
    return crypto::read_packet_hash(carrier,
                                    index * crypto::kPacketHashSize);
  }

  // --- serving ----------------------------------------------------------------

  /// Packet `index` of completed page `page`. All packets of the most
  /// recently served page are regenerated once (the codec instances are
  /// preloaded and deterministic) and cached back to back in serve_.
  ByteView served_packet(std::uint32_t page, std::uint32_t index) {
    if (serve_page_ != page) {
      if (page == 0) {
        // Page 0 packets carry their Merkle authentication paths.
        const std::size_t block = store_.stride(0);
        Bytes encoded(params_.n0 * block);
        code0_->encode(store_.page(0), encoded);
        const auto tree = crypto::MerkleTree::build(view(encoded), params_.n0);
        serve_stride_ = block + merkle_depth() * crypto::kPacketHashSize;
        serve_.resize(params_.n0 * serve_stride_);
        for (std::size_t j = 0; j < params_.n0; ++j) {
          auto out = serve_.begin() +
                     static_cast<std::ptrdiff_t>(j * serve_stride_);
          out = std::copy_n(encoded.begin() +
                                static_cast<std::ptrdiff_t>(j * block),
                            block, out);
          for (const auto& sib : tree.auth_path(j))
            out = std::copy(sib.begin(), sib.end(), out);
        }
      } else {
        serve_stride_ = params_.payload_size;
        serve_.resize(params_.n * serve_stride_);
        code_->encode(store_.page(page), serve_);
      }
      serve_page_ = page;
    }
    return view(serve_).subspan(index * serve_stride_, serve_stride_);
  }

  // --- build (base station) -----------------------------------------------------

  void build_from_image(const Bytes& image, crypto::MultiKeySigner& signer) {
    const PageLayout layout =
        compute_layout(image.size(), mid_capacity(), last_capacity());
    const std::size_t g = layout.content_pages;

    std::vector<Bytes> inputs(g);
    Bytes encoded(params_.n * params_.payload_size);
    std::vector<crypto::PacketHash> next_hashes;  // of page p+1's packets
    for (std::size_t p = g; p >= 1; --p) {
      Bytes input = page_slice(view(image), layout, p);
      if (p < g) {
        for (const auto& h : next_hashes) crypto::append(input, h);
      }
      LRS_CHECK(input.size() == params_.k * params_.payload_size);
      code_->encode(view(input), encoded);
      std::vector<ByteView> payloads(params_.n);
      for (std::size_t j = 0; j < params_.n; ++j) {
        payloads[j] = view(encoded).subspan(j * params_.payload_size,
                                            params_.payload_size);
      }
      next_hashes = proto::page_packet_hashes(
          params_.version, static_cast<std::uint32_t>(p), payloads);
      inputs[p - 1] = std::move(input);
    }

    // Hash page: M0 = h_{1,1} || ... || h_{1,n}, zero-padded to k0 blocks,
    // coded with f0, Merkle tree over the n0 encoded blocks.
    const std::size_t block0 = page0_block_size(params_);
    Bytes m0;
    for (const auto& h : next_hashes) crypto::append(m0, h);
    m0.resize(params_.k0 * block0);
    Bytes encoded0(params_.n0 * block0);
    code0_->encode(view(m0), encoded0);
    const auto tree = crypto::MerkleTree::build(view(encoded0), params_.n0);

    // Sign, and adopt as fully complete.
    sign(g, image.size(), tree.root(), signer);
    store_.buffer(0) = std::move(m0);
    for (std::uint32_t p = 1; p <= g; ++p) {
      store_.buffer(p) = std::move(inputs[p - 1]);
    }
    store_.complete_all();
  }

  std::shared_ptr<const erasure::ErasureCode> code_;   // k -> n, cached
  std::shared_ptr<const erasure::ErasureCode> code0_;  // k0 -> n0, cached

  // Authenticated shares of the frontier page in arrival order, decoded
  // into its page-store buffer once there are enough. Each is a view: data
  // shares of a systematic code into their own block of that buffer, every
  // other share into one of parity_'s buffers; spare_ holds buffers of
  // earlier pages for store_share() to reuse. Only complete states are
  // copied (clone_source), and those hold no shares. The decoded pages also
  // carry the hash chain hash_image() reads, for current traffic and
  // verify_stored_packet()'s straggler checks alike.
  std::vector<erasure::Share> shares_;
  std::vector<Bytes> parity_;
  std::vector<Bytes> spare_;

  // Single-slot serve cache: every packet of page serve_page_, serve_stride_
  // bytes apart in serve_.
  std::optional<std::uint32_t> serve_page_;
  std::size_t serve_stride_ = 0;
  Bytes serve_;
};

}  // namespace

void validate_lr_params(const proto::CommonParams& params) {
  LRS_CHECK_MSG(params.k >= 1 && params.k <= params.n,
                "need 1 <= k <= n");
  LRS_CHECK_MSG(params.k0 >= 1 && params.k0 <= params.n0,
                "need 1 <= k0 <= n0");
  LRS_CHECK_MSG((params.n0 & (params.n0 - 1)) == 0,
                "n0 must be a power of two (Merkle tree)");
  LRS_CHECK_MSG(
      params.k * params.payload_size > params.n * crypto::kPacketHashSize,
      "page too small to carry the next page's hash images");
}

std::unique_ptr<proto::SchemeState> make_lr_source(
    const proto::CommonParams& params, const Bytes& image,
    crypto::MultiKeySigner& signer) {
  return std::make_unique<LrSelugeState>(params, image, signer);
}

std::unique_ptr<proto::SchemeState> make_lr_receiver(
    const proto::CommonParams& params,
    const crypto::PacketHash& root_public_key) {
  return std::make_unique<LrSelugeState>(params, root_public_key);
}

}  // namespace lrs::core
