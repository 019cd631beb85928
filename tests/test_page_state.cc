// Page-state contract shared by all five schemes (paper §IV-D): a receiver
// makes progress only on page pages_complete(), its SNACK asks for exactly
// the packets of that page it does not hold, and a crash loses only that
// page's buffer. Driven through the SchemeState interface, so it pins the
// behaviour every scheme must keep, whatever stores its pages.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "core/experiment.h"
#include "core/lr_image.h"
#include "crypto/wots.h"
#include "proto/deluge.h"
#include "proto/page_store.h"
#include "proto/rateless.h"
#include "proto/seluge.h"
#include "proto/sluice.h"

namespace lrs {
namespace {

using proto::CommonParams;
using proto::DataStatus;
using proto::SchemeState;

struct Endpoints {
  std::unique_ptr<SchemeState> src;
  std::unique_ptr<SchemeState> dst;
};

struct SchemeUnderTest {
  const char* name;
  std::function<Endpoints(const CommonParams&, const Bytes&,
                          crypto::MultiKeySigner&)>
      make;
};

void PrintTo(const SchemeUnderTest& s, std::ostream* os) { *os << s.name; }

template <auto Source, auto Receiver>
Endpoints unsigned_pair(const CommonParams& p, const Bytes& image,
                        crypto::MultiKeySigner&) {
  return {Source(p, image), Receiver(p, image.size())};
}

template <auto Source, auto Receiver>
Endpoints signed_pair(const CommonParams& p, const Bytes& image,
                      crypto::MultiKeySigner& signer) {
  return {Source(p, image, signer), Receiver(p, signer.root_public_key())};
}

CommonParams contract_params() {
  CommonParams p;
  p.payload_size = 32;
  p.k = 8;
  p.n = 12;
  p.k0 = 4;
  p.n0 = 8;
  p.puzzle_strength = 4;
  return p;
}

class PageStateContract : public ::testing::TestWithParam<SchemeUnderTest> {
 protected:
  PageStateContract()
      : image_(core::make_test_image(2000, 17)),
        signer_(view(Bytes{0x2c}), 1),
        ends_(GetParam().make(params_, image_, signer_)) {
    if (auto frame = src().signature_frame()) {
      EXPECT_TRUE(dst().on_signature(view(*frame), m_));
    }
  }

  SchemeState& src() { return *ends_.src; }
  SchemeState& dst() { return *ends_.dst; }

  DataStatus send(std::uint32_t page, std::uint32_t index) {
    const auto payload = src().packet_payload(page, index);
    EXPECT_TRUE(payload.has_value()) << page << "/" << index;
    return dst().on_data(page, index, view(*payload), m_);
  }

  /// Sends every packet of `page` in index order until it completes.
  void complete_page(std::uint32_t page) {
    for (std::uint32_t j = 0; j < src().packets_in_page(page); ++j) {
      if (dst().pages_complete() > page) return;
      EXPECT_NE(send(page, j), DataStatus::kRejected) << page << "/" << j;
    }
    EXPECT_GT(dst().pages_complete(), page);
  }

  /// Completes page 0 and leaves `held_` of page 1 (the frontier) held.
  std::uint32_t hold_part_of_next_page() {
    complete_page(0);
    const std::uint32_t f = dst().pages_complete();
    EXPECT_EQ(f, 1u);
    for (const std::uint32_t j : held_) {
      EXPECT_EQ(send(f, j), DataStatus::kStored) << j;
    }
    return f;
  }

  void expect_requests_all_but(std::uint32_t page,
                               const std::set<std::uint32_t>& held) {
    const BitVec bits = dst().request_bits(page);
    ASSERT_EQ(bits.size(), dst().packets_in_page(page));
    for (std::uint32_t j = 0; j < bits.size(); ++j) {
      EXPECT_EQ(bits.get(j), held.count(j) == 0) << "index " << j;
    }
  }

  CommonParams params_ = contract_params();
  Bytes image_;
  crypto::MultiKeySigner signer_;
  Endpoints ends_;
  sim::NodeMetrics m_;
  // Below every scheme's decode threshold, so the page stays open.
  const std::set<std::uint32_t> held_{0, 2, 5};
};

TEST_P(PageStateContract, RequestIsTheComplementOfWhatIsHeld) {
  expect_requests_all_but(0, {});
  const std::uint32_t f = hold_part_of_next_page();
  expect_requests_all_but(f, held_);
  EXPECT_EQ(dst().buffered_packets(), held_.size());
}

TEST_P(PageStateContract, DuplicateAndNextPagePacketsAreStale) {
  const std::uint32_t f = hold_part_of_next_page();
  ASSERT_GT(src().num_pages(), f + 1);
  const sim::NodeMetrics before = m_;
  EXPECT_EQ(send(f, *held_.begin()), DataStatus::kStale);
  EXPECT_EQ(send(f + 1, 1), DataStatus::kStale);
  EXPECT_EQ(send(f - 1, 1), DataStatus::kStale);
  EXPECT_EQ(m_.auth_failures, before.auth_failures);
  EXPECT_EQ(dst().buffered_packets(), held_.size());
  expect_requests_all_but(f, held_);
}

TEST_P(PageStateContract, RebootKeepsTheFrontierAndDropsThePage) {
  const std::uint32_t f = hold_part_of_next_page();
  dst().on_reboot();
  EXPECT_EQ(dst().pages_complete(), f);
  EXPECT_EQ(dst().buffered_packets(), 0u);
  expect_requests_all_but(f, {});
  // The dropped packets are accepted again.
  EXPECT_EQ(send(f, *held_.begin()), DataStatus::kStored);
  EXPECT_EQ(dst().buffered_packets(), 1u);
}

TEST_P(PageStateContract, FullTransferAssemblesTheExactImage) {
  hold_part_of_next_page();
  dst().on_reboot();
  for (std::uint32_t p = 0; p < src().num_pages(); ++p) complete_page(p);
  ASSERT_TRUE(dst().image_complete());
  EXPECT_EQ(dst().pages_complete(), src().num_pages());
  EXPECT_EQ(dst().buffered_packets(), 0u);
  EXPECT_EQ(dst().assemble_image(), image_);
  EXPECT_EQ(m_.auth_failures, 0u);
  // A complete receiver serves every packet byte-identically.
  for (std::uint32_t p = 0; p < src().num_pages(); ++p) {
    for (std::uint32_t j = 0; j < src().packets_in_page(p); ++j) {
      EXPECT_EQ(dst().packet_payload(p, j), src().packet_payload(p, j))
          << p << "/" << j;
    }
  }
  dst().on_reboot();
  EXPECT_TRUE(dst().image_complete());
  EXPECT_EQ(dst().assemble_image(), image_);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PageStateContract,
    ::testing::Values(
        SchemeUnderTest{"deluge", unsigned_pair<proto::make_deluge_source,
                                            proto::make_deluge_receiver>},
        SchemeUnderTest{"rateless", unsigned_pair<proto::make_rateless_source,
                                              proto::make_rateless_receiver>},
        SchemeUnderTest{"sluice", signed_pair<proto::make_sluice_source,
                                          proto::make_sluice_receiver>},
        SchemeUnderTest{"seluge", signed_pair<proto::make_seluge_source,
                                          proto::make_seluge_receiver>},
        SchemeUnderTest{"lr_seluge",
                    signed_pair<core::make_lr_source, core::make_lr_receiver>}),
    [](const ::testing::TestParamInfo<SchemeUnderTest>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// PageStore on its own
// ---------------------------------------------------------------------------

using proto::PageShape;
using proto::PageStore;

// Page 0: 4 packets of 3 bytes; later pages: served as 6 packets, decoded
// into 2 blocks of 5 bytes.
PageStore small_store() { return PageStore({4, 3, 4}, {6, 5, 2}); }

TEST(PageStore, UnopenedStoreHasNoPagesButKnowsItsShapes) {
  const PageStore s = small_store();
  EXPECT_EQ(s.pages(), 0u);
  EXPECT_FALSE(s.complete());
  EXPECT_FALSE(s.is_frontier(0));
  EXPECT_EQ(s.slots(0), 4u);
  EXPECT_EQ(s.slots(7), 6u);
  EXPECT_EQ(s.request_bits(0), BitVec(4));
  EXPECT_EQ(s.held(), 0u);
}

TEST(PageStore, PutCopiesTheBlockAndNarrowsTheRequest) {
  PageStore s = small_store();
  s.open(3);
  EXPECT_EQ(s.request_bits(0), BitVec(4, true));
  const Bytes packet{7, 8, 9};
  s.put(2, view(packet));
  EXPECT_TRUE(s.holds(2));
  EXPECT_FALSE(s.holds(1));
  EXPECT_EQ(s.held(), 1u);
  EXPECT_FALSE(s.page_full());
  const ByteView held = s.packet(0, 2);
  EXPECT_EQ(Bytes(held.begin(), held.end()), packet);
  BitVec want(4, true);
  want.clear(2);
  EXPECT_EQ(s.request_bits(0), want);
  // Pages other than the frontier are never requested.
  EXPECT_EQ(s.request_bits(1), BitVec(6));
}

TEST(PageStore, DropPageForgetsArrivalsAndKeepsTheFrontier) {
  PageStore s = small_store();
  s.open(2);
  for (std::uint32_t j = 0; j < 4; ++j) s.put(j, view(Bytes(3, 1)));
  s.advance();
  s.mark(4);
  s.mark(0);
  s.drop_page();
  EXPECT_EQ(s.frontier(), 1u);
  EXPECT_EQ(s.held(), 0u);
  EXPECT_EQ(s.request_bits(1), BitVec(6, true));
  s.mark(4);  // the dropped packet is welcome again
  EXPECT_EQ(s.held(), 1u);
}

TEST(PageStore, AdvanceMovesToTheNextPageShapeUntilComplete) {
  PageStore s = small_store();
  s.open(2);
  for (std::uint32_t j = 0; j < 4; ++j) s.put(j, view(Bytes(3, 1)));
  EXPECT_TRUE(s.page_full());
  s.advance();
  EXPECT_TRUE(s.is_frontier(1));
  EXPECT_EQ(s.request_bits(1), BitVec(6, true));
  // A coded page decodes into its own buffer of blocks * stride bytes.
  EXPECT_EQ(s.buffer(1).size(), 10u);
  s.advance();
  EXPECT_TRUE(s.complete());
  EXPECT_FALSE(s.is_frontier(2));
  EXPECT_EQ(s.held(), 0u);
  EXPECT_EQ(s.request_bits(1), BitVec(6));
  s.drop_page();  // nothing left to lose
  EXPECT_TRUE(s.complete());
}

TEST(PageStore, AssemblePlacesEachContentPagesSlice) {
  PageStore s({2, 4, 2}, {2, 4, 2});
  s.open(3);
  s.buffer(0) = {9, 9, 9, 9, 9, 9, 9, 9};  // a hash page: not image bytes
  s.buffer(1) = {1, 2, 3, 4, 5, 6, 0xee, 0xee};
  s.buffer(2) = {7, 8, 9, 10, 11, 0, 0, 0};
  s.complete_all();
  // Content page 1 keeps 6 image bytes (its tail carries hashes); the last
  // page up to 8, of which the 11-byte image uses 5.
  const proto::PageLayout layout = proto::compute_layout(11, 6, 8);
  ASSERT_EQ(layout.content_pages, 2u);
  EXPECT_EQ(s.assemble(layout, 1),
            (Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(PageStore, CopiesAreIndependent) {
  PageStore a = small_store();
  a.open(2);
  a.put(1, view(Bytes{1, 2, 3}));
  PageStore b = a;
  b.put(3, view(Bytes{4, 5, 6}));
  EXPECT_EQ(a.held(), 1u);
  EXPECT_FALSE(a.holds(3));
  EXPECT_EQ(b.held(), 2u);
  EXPECT_TRUE(b.holds(1));
}

}  // namespace
}  // namespace lrs
