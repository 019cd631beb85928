#include "proto/page_store.h"

#include <algorithm>

#include "util/check.h"

namespace lrs::proto {

void PageStore::open(std::size_t pages) {
  bufs_.assign(pages, {});
  frontier_ = 0;
  restart_arrivals();
}

void PageStore::complete_all() {
  for (std::uint32_t p = 0; p < bufs_.size(); ++p) {
    LRS_CHECK(bufs_[p].size() == shape(p).blocks * shape(p).stride);
  }
  frontier_ = pages();
  restart_arrivals();
}

BitVec PageStore::request_bits(std::uint32_t page) const {
  if (!is_frontier(page)) return BitVec(slots(page));
  BitVec bits(held_.size(), true);
  bits.subtract(held_);
  return bits;
}

void PageStore::mark(std::uint32_t index) {
  LRS_CHECK(!held_.get(index));
  held_.set(index);
  ++held_count_;
}

void PageStore::put(std::uint32_t index, ByteView packet) {
  const PageShape& s = shape(frontier_);
  LRS_CHECK(index < s.blocks && packet.size() == s.stride);
  Bytes& buf = buffer(frontier_);
  std::copy(packet.begin(), packet.end(),
            buf.begin() + static_cast<std::ptrdiff_t>(index * s.stride));
  mark(index);
}

void PageStore::drop_page() {
  held_.clear_all();
  held_count_ = 0;
}

void PageStore::advance() {
  LRS_CHECK(!complete());
  ++frontier_;
  restart_arrivals();
}

Bytes& PageStore::buffer(std::uint32_t page) {
  Bytes& buf = bufs_[page];
  if (buf.empty()) buf.resize(shape(page).blocks * shape(page).stride);
  return buf;
}

Bytes PageStore::assemble(const PageLayout& layout, std::uint32_t first) const {
  LRS_CHECK_MSG(complete(), "image not complete yet");
  const std::size_t g = layout.content_pages;
  LRS_CHECK(first + g == bufs_.size());
  Bytes image(layout.image_size, 0);
  for (std::size_t p = 1; p <= g; ++p) {
    place_slice(image, layout, p,
                view(bufs_[first + p - 1])
                    .subspan(0, p < g ? layout.mid_capacity
                                      : layout.last_capacity));
  }
  return image;
}

void PageStore::restart_arrivals() {
  // Reuses the bitmap's words when the next page has the same slot count.
  const std::size_t n = complete() ? 0 : slots(frontier_);
  if (held_.size() == n) {
    held_.clear_all();
  } else {
    held_ = BitVec(n);
  }
  held_count_ = 0;
}

}  // namespace lrs::proto
