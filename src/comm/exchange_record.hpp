#pragma once
/// \file exchange_record.hpp
/// Per-collective communication accounting.
///
/// Every collective a rank executes produces one ExchangeRecord describing
/// exactly what an MPI implementation would have put on the wire: the
/// destination-resolved byte counts. The netsim cost model replays these
/// records against a platform description (Table 1) to produce the paper's
/// cross-architecture exchange times — see DESIGN.md §2.
///
/// Self-destination bytes are never recorded: a rank's payload to itself
/// stays in memory and an MPI implementation would not put it on the wire,
/// so `bytes_to_peer[self]` is always 0 for every collective kind.

#include <string>
#include <vector>

#include "util/common.hpp"

namespace dibella::comm {

/// Collective operation kinds. kBarrier is the World's phase fence and moves
/// no payload; kExchange is one Exchanger flush/wait — the irregular
/// all-to-all (MPI_Alltoallv) every payload-moving collective rides,
/// allreduce_sum and the allgatherv it sums over included (exchanger.hpp).
enum class CollectiveOp : u8 {
  kBarrier,
  kExchange,
};

const char* collective_op_name(CollectiveOp op);

/// One rank's view of one collective call.
struct ExchangeRecord {
  u64 seq = 0;                   ///< collective sequence number (aligned across ranks)
  CollectiveOp op = CollectiveOp::kBarrier;
  std::string stage;             ///< pipeline stage tag active at call time
  std::vector<u64> bytes_to_peer;  ///< bytes this rank sent to each peer (size P, self = 0)
  double wall_seconds = 0.0;     ///< measured wall time the rank was blocked in the call
  /// Measured wall time between flush_async() and wait() during which the
  /// exchange was in flight while this rank computed (kExchange only; 0 for
  /// the barrier). The cost model's exposed/hidden split is virtual
  /// (trace-derived); this is the measured counterpart.
  double hidden_wall_seconds = 0.0;
  /// Wire chunks this flush put on the mailboxes, peers only (kExchange
  /// only).
  u64 chunks = 0;
  /// Replay retransmissions this rank requested while receiving this batch
  /// (kExchange only; nonzero only under injected transport faults).
  u64 retries = 0;

  u64 total_bytes() const {
    u64 s = 0;
    for (u64 b : bytes_to_peer) s += b;
    return s;
  }
};

}  // namespace dibella::comm
