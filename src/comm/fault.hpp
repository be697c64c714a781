#pragma once
/// \file fault.hpp
/// Deterministic fault injection for the SPMD substrate — the testable
/// failure model behind the self-healing exchange, checkpoint/restart, and
/// graceful-degradation machinery.
///
/// A FaultPlan is a set of FaultSpecs parsed from the driver's
/// `--inject-fault=kind@stage:epoch[:rank]` syntax (comma-separated for
/// several). `stage` is the pipeline stage tag the communicator is in
/// (bloom | ht | overlap | align | sgraph), `epoch` is the 0-based index of
/// a collective operation within that stage on the injecting `rank`
/// (default rank 0) — every barrier and every Exchanger flush counts one,
/// and every payload-moving collective is an Exchanger flush (a stage's
/// exchange batches as well as stage 1's comm::allreduce_sum). A
/// spec arms at the first *opportunity* at or after its epoch: abort faults
/// fire at the matching collective of any kind; a transport fault fires at
/// its exact epoch, or at the stage's next exchange if that epoch is a
/// barrier (which carries no payload). Both --overlap-comm schedules travel
/// the same framed path, so both see the same faults.
///
/// Transport faults mangle exactly one wire chunk of the matched flush (the
/// chunk-0 payload to neighbour (rank+1) % P): dropped, duplicated, delayed,
/// truncated, or bit-flipped. The pristine copy stays in the sender's replay
/// buffer, so the receiver's CRC + retry protocol (world_state.hpp) absorbs
/// the fault. Every spec is one-shot — it fires at most once per plan
/// lifetime — which is what lets a retransmission succeed and a degraded
/// re-run over the same World proceed past the original abort.

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "util/common.hpp"

namespace dibella::comm {

enum class FaultKind : u8 {
  kDrop,       ///< chunk never reaches the mailbox (replay copy survives)
  kDuplicate,  ///< chunk deposited twice (idempotent receive discards one)
  kDelay,      ///< chunk invisible to the receiver for a short window
  kTruncate,   ///< chunk delivered with half its bytes missing
  kBitFlip,    ///< one payload bit flipped on the wire copy
  kAbort,      ///< injecting rank throws RankFailure at the collective
};

const char* fault_kind_name(FaultKind kind);

/// One injected fault: kind, pipeline stage tag, stage-local collective
/// index, and the injecting rank.
struct FaultSpec {
  FaultKind kind = FaultKind::kDrop;
  std::string stage;  ///< bloom | ht | overlap | align | sgraph
  u64 epoch = 0;      ///< 0-based collective index within `stage` on `rank`
  int rank = 0;       ///< the rank that injects (sender / aborter)
};

/// Thrown by the injecting rank when an abort fault fires; poisons the
/// World, so siblings unwind with WorldPoisoned and World::run rethrows
/// this. Also the driver's signal to attempt graceful degradation.
class RankFailure : public CommFailure {
 public:
  RankFailure(int rank, const std::string& what)
      : CommFailure(what), rank_(rank) {}
  int failed_rank() const { return rank_; }

 private:
  int rank_;
};

/// An immutable set of one-shot fault specs, shared by every rank of a
/// World (methods are thread-safe; firing is resolved with atomics).
class FaultPlan {
 public:
  explicit FaultPlan(std::vector<FaultSpec> specs);

  /// Parse `kind@stage:epoch[:rank][,kind@stage:epoch[:rank]...]`; kinds are
  /// drop | duplicate | delay | truncate | bitflip | abort. Throws Error
  /// with a usage-style message on malformed input.
  static std::shared_ptr<const FaultPlan> parse(const std::string& text);

  const std::vector<FaultSpec>& specs() const { return specs_; }

  /// Called by each rank at the start of collective `index` of `stage`:
  /// throws RankFailure when an unfired abort spec matches (stage, rank,
  /// epoch <= index).
  void maybe_abort(const std::string& stage, u64 index, int rank) const;

  /// Called by the injecting rank at Exchanger flush `index` of `stage`:
  /// consumes and returns the first unfired matching transport spec's kind.
  std::optional<FaultKind> transport_fault(const std::string& stage, u64 index,
                                           int rank) const;

 private:
  std::vector<FaultSpec> specs_;
  mutable std::unique_ptr<std::atomic<bool>[]> fired_;
};

}  // namespace dibella::comm
