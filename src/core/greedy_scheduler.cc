#include "core/greedy_scheduler.h"

#include <algorithm>

#include "util/check.h"

namespace lrs::core {

GreedyRoundRobinScheduler::GreedyRoundRobinScheduler(
    std::size_t packets_in_page)
    : n_(packets_in_page), popularity_(packets_in_page, 0) {
  LRS_CHECK(n_ >= 1);
}

void GreedyRoundRobinScheduler::tally(const BitVec& wanted, bool add) {
  for (auto j = wanted.first_set(); j; j = wanted.first_set(*j + 1)) {
    if (add) {
      ++popularity_[*j];
    } else {
      --popularity_[*j];
    }
  }
}

std::vector<GreedyRoundRobinScheduler::Entry>::iterator
GreedyRoundRobinScheduler::lower_bound(NodeId node) {
  return std::lower_bound(
      table_.begin(), table_.end(), node,
      [](const Entry& e, NodeId v) { return e.node < v; });
}

void GreedyRoundRobinScheduler::on_snack(NodeId node, const BitVec& requested,
                                         std::size_t needed) {
  LRS_CHECK(requested.size() == n_);
  auto it = lower_bound(node);
  const bool known = it != table_.end() && it->node == node;
  if (known) tally(it->wanted, false);
  if (needed == 0 || requested.none()) {
    if (known) table_.erase(it);
    return;
  }
  if (!known) it = table_.insert(it, Entry{node, {}, 0});
  it->wanted = requested;
  it->distance = needed;
  tally(it->wanted, true);
}

std::size_t GreedyRoundRobinScheduler::popularity(std::uint32_t index) const {
  LRS_CHECK(index < n_);
  return popularity_[index];
}

std::size_t GreedyRoundRobinScheduler::distance(NodeId node) const {
  for (const Entry& e : table_) {
    if (e.node == node) return e.distance;
  }
  return 0;
}

std::optional<std::uint32_t> GreedyRoundRobinScheduler::next_packet() {
  if (table_.empty()) return std::nullopt;

  // Scan cyclically, starting right after the previous transmission (from
  // index 0 for the first pick), keeping the first index of maximum
  // popularity encountered in that order: [start, n) then [0, start).
  const std::size_t start = sent_any_ ? (last_ + 1) % n_ : 0;
  std::size_t best_index = n_;  // invalid
  std::size_t best_pop = 0;
  const auto scan = [&](std::size_t from, std::size_t to) {
    for (std::size_t j = from; j < to; ++j) {
      if (popularity_[j] > best_pop) {
        best_pop = popularity_[j];
        best_index = j;
      }
    }
  };
  scan(start, n_);
  scan(0, start);
  if (best_pop == 0) {
    // Entries exist but want nothing we can give; drop them (they will
    // re-request after their own timeout if they still need packets).
    table_.clear();
    return std::nullopt;
  }

  account_transmission(static_cast<std::uint32_t>(best_index));
  sent_any_ = true;
  last_ = best_index;
  return static_cast<std::uint32_t>(best_index);
}

void GreedyRoundRobinScheduler::set_start(std::uint32_t index) {
  sent_any_ = true;
  last_ = (index + n_ - 1) % n_;
}

void GreedyRoundRobinScheduler::on_overheard_data(std::uint32_t index) {
  if (index >= n_) return;
  account_transmission(index);
}

void GreedyRoundRobinScheduler::account_transmission(std::uint32_t index) {
  // Settles every row, compacting the survivors in place (order kept).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    Entry& entry = table_[i];
    if (entry.wanted.get(index)) {
      entry.wanted.clear(index);
      --popularity_[index];
      if (entry.distance > 0) --entry.distance;
    }
    if (entry.distance == 0 || entry.wanted.none()) {
      tally(entry.wanted, false);
      continue;
    }
    if (kept != i) table_[kept] = std::move(entry);
    ++kept;
  }
  table_.resize(kept);
}

std::size_t GreedyRoundRobinScheduler::backlog() const {
  // Transmissions still owed under the optimistic no-loss assumption: the
  // greedy sweep sends at most max distance... a cheap upper bound is the
  // largest per-neighbor distance; the true count depends on overlaps.
  std::size_t worst = 0;
  for (const Entry& entry : table_) worst = std::max(worst, entry.distance);
  return worst;
}

std::unique_ptr<proto::TxScheduler> make_greedy_scheduler(
    std::size_t packets_in_page) {
  return std::make_unique<GreedyRoundRobinScheduler>(packets_in_page);
}

}  // namespace lrs::core
