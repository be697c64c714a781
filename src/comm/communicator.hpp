#pragma once
/// \file communicator.hpp
/// Per-rank handle on the in-process World: rank identity, the barrier,
/// and the accounting every collective shares (stage tag, exchange records,
/// the collective epoch and the fault-injection index).
///
/// The Communicator moves no payload itself. Every byte that crosses ranks
/// travels through comm::Exchanger (exchanger.hpp) — a stage's batched
/// exchange loop as well as comm::allreduce_sum, the pipeline's one other
/// collective (a sum over comm::allgatherv) — over the World's framed,
/// CRC-checked, replayable mailbox path.
/// barrier() is the one collective without a payload: the World's single
/// phase fence. All collectives follow the SPMD contract: every rank calls
/// them in the same order.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "comm/exchange_record.hpp"
#include "util/common.hpp"

namespace dibella::comm {

class FaultPlan;

namespace detail {
class WorldState;
}

class Communicator {
 public:
  Communicator(detail::WorldState& state, int rank);

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Tag subsequent exchange records with a pipeline stage name (e.g.
  /// "bloom", "alignment"). Purely for accounting.
  void set_stage(std::string stage) { stage_ = std::move(stage); }
  const std::string& stage() const { return stage_; }

  /// Optional per-record callback (used by the pipeline to interleave
  /// exchange events with compute events in its rank trace).
  void set_record_sink(std::function<void(const ExchangeRecord&)> sink) {
    sink_ = std::move(sink);
  }

  /// Optional callback fired when an Exchanger flush starts (used by the
  /// pipeline to mark the start of a compute-concurrent exchange window in
  /// its rank trace; pairs with the record sink's completion event).
  void set_exchange_start_sink(std::function<void()> sink) {
    start_sink_ = std::move(sink);
  }

  /// Synchronize all ranks (the World's single phase fence).
  void barrier();

 private:
  friend class Exchanger;

  /// Every collective operation (the barrier and each Exchanger flush)
  /// announces itself here before touching the wire: the call assigns
  /// the operation's 0-based index within the current stage on this rank —
  /// the `epoch` coordinate of `--inject-fault=kind@stage:epoch[:rank]` —
  /// and throws RankFailure if an unfired abort spec matches. Returns the
  /// index so the Exchanger can also match transport faults against it.
  u64 fault_point();

  ExchangeRecord start_record(CollectiveOp op);
  void finish_record(ExchangeRecord rec, double wall_seconds);

  /// Move to the next collective epoch; every collective (the barrier and
  /// each Exchanger flush) consumes exactly one epoch on every rank, which
  /// is what keeps mailbox tags aligned across ranks.
  void advance_epoch() { ++epoch_; }

  detail::WorldState& state_;
  int rank_;
  int size_;
  u64 epoch_ = 0;
  std::string stage_;
  std::function<void(const ExchangeRecord&)> sink_;
  std::function<void()> start_sink_;
  std::shared_ptr<const FaultPlan> fault_plan_;
  std::map<std::string, u64> stage_collective_index_;  ///< fault_point() counters
};

}  // namespace dibella::comm
