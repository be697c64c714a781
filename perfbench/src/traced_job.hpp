#pragma once
/// \file traced_job.hpp
/// The traced job: the same work as run_job, composed by the benchmark from
/// each layer's public entry point inside World::run, with a span around
/// every call and a barrier after every stage call. Its PAF+GFA digest must
/// equal run_pipeline's, or its per-layer numbers describe another program.

#include <vector>

#include "comm/exchange_record.hpp"
#include "job.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-rank work counts the traced composition gathers from the stage
/// results (summed over ranks), cross-checked against PipelineCounters.
struct TracedCounts {
  u64 kmers_parsed = 0;
  u64 overlap_tasks = 0;
  u64 dp_cells = 0;
  u64 alignments_reported = 0;
};

struct TracedJobResult {
  JobResult job;  ///< digest, wall, eval; counters stay zero
  TracedCounts counts;
  std::vector<SpanRec> spans;
  /// comm::World::exchange_records() of the job, [rank][call].
  std::vector<std::vector<dibella::comm::ExchangeRecord>> exchange_log;
};

/// Stage tag the benchmark's own barriers carry in the exchange log.
inline constexpr const char* kBenchStageTag = "bench";

TracedJobResult run_traced_job(const Dataset& ds, const dibella::core::PipelineConfig& cfg);

}  // namespace perfbench
