// One page store for every scheme (paper §IV-D).
//
// Every scheme moves the image page by page: a receiver accepts packets of
// page pages_complete() only, its SNACK asks for exactly the packets of that
// page it does not hold, and a crash loses only that page's buffer.
// PageStore keeps this state once — the frontier, the frontier page's
// arrival bitmap and one contiguous buffer per page — and PagedScheme
// answers the SchemeState page queries from it, so each scheme writes only
// its own checks and decoding.
//
// ARQ schemes (Deluge, Sluice, Seluge) write packet j as block j of the
// page buffer; the coded schemes (Rateless, LR-Seluge) decode the page's k
// blocks into it. Completed pages are what a node keeps in flash; the
// frontier page's arrivals are RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "proto/layout.h"
#include "proto/scheme.h"
#include "util/bitvec.h"
#include "util/types.h"

namespace lrs::proto {

/// One page's geometry: the `slots` packets it is served as, and a buffer
/// of `blocks` blocks of `stride` bytes (packet j itself on ARQ pages, the
/// decoded blocks on coded pages).
struct PageShape {
  std::size_t slots = 0;
  std::size_t stride = 0;
  std::size_t blocks = 0;
};

class PageStore {
 public:
  PageStore() = default;
  /// Page 0 has shape `first`, every later page `rest`. Holds no pages
  /// until open().
  PageStore(PageShape first, PageShape rest) : first_(first), rest_(rest) {}

  /// Makes room for `pages` pages, none complete and nothing held.
  void open(std::size_t pages);
  /// Base station: every page buffer has been written; all are complete.
  void complete_all();

  // --- frontier ---------------------------------------------------------------
  std::uint32_t pages() const {
    return static_cast<std::uint32_t>(bufs_.size());
  }
  std::size_t slots(std::uint32_t page) const { return shape(page).slots; }
  /// Bytes per block of `page` (an ARQ page's packet size).
  std::size_t stride(std::uint32_t page) const { return shape(page).stride; }
  /// Contiguous count of complete pages starting at page 0.
  std::uint32_t frontier() const { return frontier_; }
  bool complete() const { return !bufs_.empty() && frontier_ == bufs_.size(); }
  /// Only a packet of the frontier page can make progress; any other is
  /// stale.
  bool is_frontier(std::uint32_t page) const {
    return page == frontier_ && page < bufs_.size();
  }

  // --- the frontier page's arrivals ---------------------------------------------
  /// Whether packet `index` of the frontier page is already held.
  bool holds(std::uint32_t index) const { return held_.get(index); }
  /// Packets held for the frontier page: the RAM a crash would lose.
  std::size_t held() const { return held_count_; }
  /// Whether every packet of the frontier page is held.
  bool page_full() const { return held_count_ == held_.size(); }
  /// SNACK bitmap of `page`: the frontier page's packets not held; no bit
  /// for any other page.
  BitVec request_bits(std::uint32_t page) const;
  /// Records packet `index` of the frontier page as held.
  void mark(std::uint32_t index);
  /// Copies `packet` into block `index` of the frontier page and marks it.
  void put(std::uint32_t index, ByteView packet);
  /// Forgets every arrival of the frontier page (crash, or a page that
  /// failed its check); the frontier stays.
  void drop_page();
  /// The frontier page is complete; arrivals restart on the next page.
  void advance();

  // --- page buffers ---------------------------------------------------------------
  /// Buffer of `page`, sized to its shape on first use.
  Bytes& buffer(std::uint32_t page);
  ByteView page(std::uint32_t page) const { return view(bufs_[page]); }
  /// Block `index` of `page`.
  ByteView packet(std::uint32_t p, std::uint32_t index) const {
    return view(bufs_[p]).subspan(index * stride(p), stride(p));
  }
  /// The image of a complete store whose content page p (1-based) is page
  /// `first + p - 1` and starts with its image slice.
  Bytes assemble(const PageLayout& layout, std::uint32_t first) const;

 private:
  const PageShape& shape(std::uint32_t page) const {
    return page == 0 ? first_ : rest_;
  }
  void restart_arrivals();

  PageShape first_;
  PageShape rest_;
  std::vector<Bytes> bufs_;
  std::uint32_t frontier_ = 0;
  BitVec held_;  // frontier page's arrivals; empty once complete
  std::size_t held_count_ = 0;
};

/// A scheme whose page bookkeeping is one PageStore: geometry, frontier,
/// image completion, request bitmap, buffered count and the crash reset
/// are answered here.
class PagedScheme : public SchemeState {
 public:
  std::uint32_t num_pages() const override { return store_.pages(); }
  std::size_t packets_in_page(std::uint32_t page) const override {
    return store_.slots(page);
  }
  /// ARQ: every packet of the page is required.
  std::size_t decode_threshold(std::uint32_t page) const override {
    return store_.slots(page);
  }
  std::uint32_t pages_complete() const override { return store_.frontier(); }
  bool image_complete() const override { return store_.complete(); }
  BitVec request_bits(std::uint32_t page) const override {
    return store_.request_bits(page);
  }
  std::size_t buffered_packets() const override { return store_.held(); }
  /// Completed pages live in flash; the frontier page's arrivals are RAM.
  void on_reboot() override { store_.drop_page(); }

 protected:
  PagedScheme(PageShape first, PageShape rest) : store_(first, rest) {}

  PageStore store_;
};

}  // namespace lrs::proto
