#include "cell.h"

#include <utility>
#include <vector>

namespace perfbench {

CellResult run_cell(CellSetup setup, const lrs::Bytes& expected,
                    Tracer* tracer) {
  using lrs::sim::PacketClass;

  std::unique_ptr<TimerSlab> slab;
  std::unique_ptr<lrs::sim::Simulator> simulator;
  auto rx_memo = std::make_unique<lrs::proto::RxFanoutMemo>();
  std::vector<lrs::proto::DissemNode*> nodes;
  {
    Span span(tracer, Layer::kSimBuild);
    std::unique_ptr<lrs::sim::LossModel> loss = std::move(setup.loss);
    if (tracer != nullptr) {
      slab = std::make_unique<TimerSlab>(tracer);
      loss = std::make_unique<TimedLoss>(std::move(loss), *tracer);
    }
    simulator = std::make_unique<lrs::sim::Simulator>(
        std::move(setup.topology), std::move(loss), setup.radio, setup.seed);
    setup.engine.rx_memo = rx_memo.get();
    const std::vector<lrs::NodeId>& members = simulator->members();
    nodes.reserve(members.size());
    for (const lrs::NodeId id : members) {
      lrs::proto::EngineConfig cfg = setup.engine;
      cfg.is_base_station = id == members.front();
      std::unique_ptr<lrs::proto::SchemeState> scheme =
          cfg.is_base_station ? std::move(setup.source) : setup.make_receiver();
      if (tracer != nullptr) {
        nodes.push_back(&simulator
                             ->add_node<TracedNode>(*slab, *tracer,
                                                    std::move(scheme), cfg,
                                                    setup.cluster_key)
                             .engine());
      } else {
        nodes.push_back(&simulator->add_node<lrs::proto::DissemNode>(
            std::move(scheme), cfg, setup.cluster_key));
      }
    }
  }

  const lrs::NodeId base = simulator->members().front();
  const std::size_t receivers = nodes.size() - 1;
  const lrs::sim::Metrics& metrics = simulator->metrics();
  {
    Span span(tracer, Layer::kSimRun);
    simulator->run(setup.time_limit, [&] {
      return metrics.completed_count(base) == receivers;
    });
  }

  Span span(tracer, Layer::kCellOther);
  CellResult r;
  r.receivers = receivers;
  r.completed = metrics.completed_count(base);
  r.data_packets = metrics.total_sent(PacketClass::kData);
  r.snack_packets = metrics.total_sent(PacketClass::kSnack);
  r.adv_packets = metrics.total_sent(PacketClass::kAdvertisement);
  r.sig_packets = metrics.total_sent(PacketClass::kSignature);
  r.total_bytes = metrics.total_sent_bytes();
  r.latency_s = r.completed == receivers
                    ? lrs::sim::to_seconds(metrics.last_completion())
                    : lrs::sim::to_seconds(setup.time_limit);
  r.events = simulator->events_executed();
  r.collisions = simulator->collisions();
  for (std::size_t k = 1; k < nodes.size(); ++k) {
    if (nodes[k]->image_complete() &&
        nodes[k]->scheme().assemble_image() == expected) {
      ++r.exact;
    }
  }
  // Teardown belongs to the cell too.
  nodes.clear();
  simulator.reset();
  slab.reset();
  return r;
}

}  // namespace perfbench
