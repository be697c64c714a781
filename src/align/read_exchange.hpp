#pragma once
/// \file read_exchange.hpp
/// Stage 4a (§4, §9): "Redistribute and replicate reads (the original
/// strings) to match read-pair distribution."
///
/// The owner heuristic guarantees one read of every task is already local;
/// the other may live anywhere. Each rank sends its needed gids to the
/// owning ranks, which reply with the read strings. Received reads are
/// cached in the rank's ReadStore, replicating them for the
/// embarrassingly-parallel alignment compute.
///
/// Requests and replies travel in bounded batches on comm::Exchanger, two
/// exchange loops in all: request-id batches, then reply batches that
/// marshal gid/length/characters into a single byte stream per peer.
/// Overlapped (the default), reply serialization is packed while the
/// previous batch is in flight and arrived reads are deserialized while the
/// next one travels; bulk-synchronous, each batch is a lock-step superstep.
/// Identical replication either way.

#include <vector>

#include "core/stage_context.hpp"
#include "io/read_store.hpp"
#include "overlap/overlapper.hpp"
#include "util/common.hpp"

namespace dibella::align {

struct ReadExchangeConfig {
  /// Exchange schedule (comm::Exchanger::Config::overlap): overlap
  /// request/reply batches with serialization, or run bulk-synchronous
  /// supersteps. Identical replication.
  bool overlap_comm = true;
  u64 exchange_chunk_bytes = 1u << 20;  ///< Exchanger chunk granularity
};

struct ReadExchangeResult {
  u64 reads_requested = 0;  ///< distinct remote gids this rank needed
  u64 reads_served = 0;     ///< read strings this rank sent to others
  u64 bytes_received = 0;   ///< sequence bytes received (replication volume)
};

/// Fetch every remote read referenced by `tasks` into `store`'s cache.
/// Collective.
ReadExchangeResult run_read_exchange(core::StageContext& ctx, io::ReadStore& store,
                                     const std::vector<overlap::AlignmentTask>& tasks,
                                     const ReadExchangeConfig& cfg = ReadExchangeConfig());

}  // namespace dibella::align
