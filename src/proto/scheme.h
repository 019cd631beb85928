// The scheme abstraction: everything protocol-specific that the shared
// dissemination engine delegates.
//
// One SchemeState instance lives inside each node. It owns the node's view
// of the code image — complete on the base station, incrementally filled on
// receivers — and implements packet authentication, page decoding, request
// construction and packet (re)generation for serving. The engine handles
// states, timers, Trickle, SNACK suppression and TX scheduling policy.
// Every scheme keeps its page state (frontier, request bitmap, page
// buffers) in one PageStore through the PagedScheme base (page_store.h).
#pragma once

#include <memory>
#include <optional>

#include "crypto/hash.h"
#include "proto/scheduler.h"
#include "sim/metrics.h"
#include "util/bitvec.h"
#include "util/types.h"

namespace lrs::proto {

/// Outcome of feeding a data packet to the scheme.
enum class DataStatus {
  kRejected,       // failed authentication (or malformed) — hostile
  kStale,          // wrong page / duplicate — harmless, dropped
  kStored,         // authenticated and buffered
  kPageComplete,   // this packet completed (decoded) the current page
  kImageComplete,  // this packet completed the whole image
};

/// Cached digest of one data packet's hash preimage, shared across the
/// receivers of a single broadcast delivery (see RxFanoutMemo in engine.h).
/// The engine resets `valid` whenever the delivery serial changes; schemes
/// fill it the first time they hash the packet and reuse it afterwards.
/// For a page-0 packet (Seluge, LR-Seluge) the digest is the Merkle root
/// its authentication path implies (proto/auth.h). Verification *decisions* and
/// hash_verifications accounting stay per-receiver — only the
/// recomputation of an identical digest is elided.
struct RxDigestMemo {
  bool valid = false;
  crypto::PacketHash digest{};
};

class SchemeState {
 public:
  virtual ~SchemeState() = default;

  // --- identity & geometry -------------------------------------------------
  virtual Version version() const = 0;
  /// Deep copy of a COMPLETE (serving-ready) state, sharing the expensive
  /// immutable preprocessing — hash chain, Merkle tree, signature frame,
  /// cached codecs — instead of recomputing and re-signing per copy. The
  /// fleet engine uses this to stamp one prepared image onto thousands of
  /// concurrent cells' base stations. Returns nullptr when the state is not
  /// complete here (nothing worth cloning) or the scheme does not support
  /// it (the default).
  virtual std::unique_ptr<SchemeState> clone_source() const {
    return nullptr;
  }
  /// Total transfer pages (hash page included where the scheme has one).
  virtual std::uint32_t num_pages() const = 0;
  /// Number of distinct packets a page is served as (n, n0 or k).
  virtual std::size_t packets_in_page(std::uint32_t page) const = 0;
  /// Packets sufficient to complete a page (k' / k0' / k).
  virtual std::size_t decode_threshold(std::uint32_t page) const = 0;

  // --- receiver ------------------------------------------------------------
  /// Contiguous count of complete pages starting at page 0.
  virtual std::uint32_t pages_complete() const = 0;
  virtual bool image_complete() const = 0;
  /// Recovered image bytes (only once complete).
  virtual Bytes assemble_image() const = 0;

  /// Which packet indices of `page` to set in a SNACK (the ones not yet
  /// received/stored).
  virtual BitVec request_bits(std::uint32_t page) const = 0;

  /// Packets currently buffered for the in-progress (not yet complete)
  /// page — the volatile RAM a crash would lose. Zero once the image is
  /// complete. Invariant checkers use this to verify nothing is buffered
  /// before authentication succeeds.
  virtual std::size_t buffered_packets() const { return 0; }

  /// Crash/reboot: drop the volatile in-progress page buffer, keep what a
  /// real node persists to flash (completed pages, verified bootstrap
  /// metadata). Default: nothing volatile to lose.
  virtual void on_reboot() {}

  /// Authenticates and stores a received data packet. `m` is charged for
  /// verification work. Only packets of page pages_complete() make
  /// progress; others are kStale. `digest` (nullable) caches the
  /// packet-content digest across the receivers of one broadcast delivery;
  /// schemes whose authentication is a per-packet content hash reuse it.
  virtual DataStatus on_data(std::uint32_t page, std::uint32_t index,
                             ByteView payload, sim::NodeMetrics& m,
                             RxDigestMemo* digest) = 0;
  /// on_data without a fan-out memo.
  virtual DataStatus on_data(std::uint32_t page, std::uint32_t index,
                             ByteView payload, sim::NodeMetrics& m) {
    return on_data(page, index, payload, m, nullptr);
  }

  /// Checks whether a packet of an ALREADY-COMPLETE page is authentic
  /// (one hash against the stored hash chain). The engine uses this to
  /// distinguish genuine straggler service (worth holding our own request
  /// back for, to keep the neighborhood in lockstep) from forged traffic,
  /// which must never delay us. Returns false for pages not yet complete.
  /// `digest` is the fan-out memo, as for on_data.
  virtual bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                                    ByteView payload, sim::NodeMetrics& m,
                                    RxDigestMemo* digest) const = 0;
  /// verify_stored_packet without a fan-out memo.
  virtual bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                                    ByteView payload,
                                    sim::NodeMetrics& m) const {
    return verify_stored_packet(page, index, payload, m, nullptr);
  }

  // --- bootstrap (signature packet) ----------------------------------------
  /// Whether data packets are useless until a signature packet verified.
  virtual bool needs_signature() const = 0;
  /// Root known (vacuously true for schemes without signatures).
  virtual bool bootstrapped() const = 0;
  /// Processes a received signature frame. Returns true when it verified
  /// and the node became bootstrapped.
  virtual bool on_signature(ByteView frame, sim::NodeMetrics& m) = 0;
  /// Serialized signature frame for (re)broadcast; nullopt if the scheme
  /// has none or this node is not bootstrapped with a stored copy.
  virtual std::optional<Bytes> signature_frame() const = 0;

  // --- sender --------------------------------------------------------------
  /// Payload of packet (page, index); nullopt unless the page is complete
  /// here. LR-Seluge re-encodes the decoded page on demand.
  virtual std::optional<Bytes> packet_payload(std::uint32_t page,
                                              std::uint32_t index) = 0;

  /// TX scheduling policy for serving a page of this scheme.
  virtual std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t page) const = 0;
};

}  // namespace lrs::proto
