#include "core/greedy_scheduler.h"

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

void GreedyRoundRobinScheduler::on_snack(NodeId node, const BitVec& requested,
                                         std::size_t needed) {
  LRS_CHECK(requested.size() == n_);
  auto it = table_.find(node);
  if (it != table_.end()) tally(it->second.wanted, false);
  if (needed == 0 || requested.none()) {
    if (it != table_.end()) table_.erase(it);
    return;
  }
  auto& entry = it != table_.end() ? it->second : table_[node];
  entry.wanted = requested;
  entry.distance = needed;
  tally(entry.wanted, true);
}

std::size_t GreedyRoundRobinScheduler::popularity(std::uint32_t index) const {
  LRS_CHECK(index < n_);
  return popularity_[index];
}

std::size_t GreedyRoundRobinScheduler::distance(NodeId node) const {
  auto it = table_.find(node);
  return it == table_.end() ? 0 : it->second.distance;
}

std::optional<std::uint32_t> GreedyRoundRobinScheduler::next_packet() {
  if (table_.empty()) return std::nullopt;

  // Scan cyclically, starting right after the previous transmission (from
  // index 0 for the first pick), keeping the first index of maximum
  // popularity encountered in that order.
  const std::size_t start = sent_any_ ? (last_ + 1) % n_ : 0;
  std::size_t best_index = n_;  // invalid
  std::size_t best_pop = 0;
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t j = (start + step) % n_;
    const std::size_t pop = popularity_[j];
    if (pop > best_pop) {
      best_pop = pop;
      best_index = j;
    }
  }
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
  for (auto it = table_.begin(); it != table_.end();) {
    auto& entry = it->second;
    if (entry.wanted.get(index)) {
      entry.wanted.clear(index);
      --popularity_[index];
      if (entry.distance > 0) --entry.distance;
    }
    if (entry.distance == 0 || entry.wanted.none()) {
      tally(entry.wanted, false);
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t GreedyRoundRobinScheduler::backlog() const {
  // Transmissions still owed under the optimistic no-loss assumption: the
  // greedy sweep sends at most max distance... a cheap upper bound is the
  // largest per-neighbor distance; the true count depends on overlaps.
  std::size_t worst = 0;
  for (const auto& [id, entry] : table_) {
    worst = std::max(worst, entry.distance);
  }
  return worst;
}

std::unique_ptr<proto::TxScheduler> make_greedy_scheduler(
    std::size_t packets_in_page) {
  return std::make_unique<GreedyRoundRobinScheduler>(packets_in_page);
}

}  // namespace lrs::core
