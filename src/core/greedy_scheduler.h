// LR-Seluge's greedy round-robin TX scheduler (paper §IV-D.3, Table I).
//
// A serving node keeps a tracking table with one entry per requesting
// neighbor: the bit-vector of packets that neighbor still finds useful and
// its *distance* — how many more packets it needs to decode the page
// (d = q + k' - n). The scheduler transmits the packet wanted by the most
// neighbors (ties: first in cyclic order after the previous transmission;
// the very first pick starts from index 0, i.e. lowest index). After each
// transmission it optimistically clears that column, decrements the
// distance of every neighbor that wanted the packet, and deletes entries
// whose distance reaches zero — those neighbors can decode even though
// other requested bits remain unserved. That early cutoff is what saves
// LR-Seluge up to ~40% of data transmissions versus serving the union.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "proto/scheduler.h"

namespace lrs::core {

class GreedyRoundRobinScheduler final : public proto::TxScheduler {
 public:
  explicit GreedyRoundRobinScheduler(std::size_t packets_in_page);

  void on_snack(NodeId node, const BitVec& requested,
                std::size_t needed) override;
  std::optional<std::uint32_t> next_packet() override;
  void on_overheard_data(std::uint32_t index) override;
  void set_start(std::uint32_t index) override;
  bool idle() const override { return table_.empty(); }
  std::size_t backlog() const override;

  /// Number of tracked neighbors (tests & diagnostics).
  std::size_t tracked() const { return table_.size(); }
  /// Distance of a tracked neighbor, 0 if absent.
  std::size_t distance(NodeId node) const;
  /// Popularity of a packet index: how many tracked neighbors want it.
  std::size_t popularity(std::uint32_t index) const;

 private:
  struct Entry {
    NodeId node = 0;
    BitVec wanted;
    std::size_t distance = 0;
  };

  /// First entry whose node is not below `node`.
  std::vector<Entry>::iterator lower_bound(NodeId node);

  /// Clears column `index` and settles distances, deleting satisfied rows.
  void account_transmission(std::uint32_t index);
  /// Adds one tracked row's wanted bits to popularity_, or removes them.
  void tally(const BitVec& wanted, bool add);

  std::size_t n_;
  bool sent_any_ = false;
  std::size_t last_ = 0;
  // Tracked rows, flat and sorted by node id: a server tracks a handful of
  // requesters at a time.
  std::vector<Entry> table_;
  // popularity_[j]: how many rows of table_ want packet j, kept in step
  // with every table_ change so a pick reads n counts instead of walking
  // the table once per index.
  std::vector<std::size_t> popularity_;
};

std::unique_ptr<proto::TxScheduler> make_greedy_scheduler(
    std::size_t packets_in_page);

}  // namespace lrs::core
