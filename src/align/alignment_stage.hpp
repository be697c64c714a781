#pragma once
/// \file alignment_stage.hpp
/// Pipeline stage 4 (§9): x-drop pairwise alignment of every task.
///
/// After the read exchange the computation is embarrassingly parallel: each
/// rank aligns its tasks locally, extending from each surviving seed and
/// keeping the pair's best alignment. The per-rank wall time is the load-
/// imbalance metric of Fig 8 — near-perfect balance in task *counts*, but
/// imperfect in *time* because read lengths differ and x-drop returns early
/// on divergent pairs.

#include <vector>

#include "align/scoring.hpp"
#include "core/stage_context.hpp"
#include "io/read_store.hpp"
#include "overlap/overlapper.hpp"
#include "util/common.hpp"

namespace dibella::align {

/// Final product of the pipeline: one aligned overlap.
struct AlignmentRecord {
  u64 rid_a = 0;
  u64 rid_b = 0;
  u8 same_orientation = 1;  ///< 0: b was reverse-complemented for alignment
  i32 score = 0;
  /// Aligned half-open spans. b coordinates refer to b's forward frame even
  /// for reverse-complement alignments (converted back before reporting).
  u32 a_begin = 0, a_end = 0;
  u32 b_begin = 0, b_end = 0;
  u32 seeds_explored = 0;
};
static_assert(std::is_trivially_copyable_v<AlignmentRecord>);

struct AlignmentStageConfig {
  Scoring scoring;
  int xdrop = 25;
  /// Seed (k-mer) length the overlap stage used — needed to anchor
  /// extensions and to map reverse-complement seed coordinates.
  int k = 17;
  /// Report only alignments with score >= min_score (0 keeps everything).
  int min_score = 0;
  /// Colinear-chain each multi-seed pair (align/chain.hpp) and extend only
  /// the best chain's representative anchor, instead of extending every
  /// seed and keeping the best score. Off preserves the exhaustive per-seed
  /// sweep; the pipeline turns this on by default.
  bool chain = false;
};

struct AlignmentStageResult {
  u64 pairs_aligned = 0;       ///< tasks processed
  u64 alignments_computed = 0; ///< seed extensions performed (Fig 7's unit)
  u64 dp_cells = 0;            ///< total DP cells (the real work metric)
  u64 records_kept = 0;        ///< alignments above min_score
  u64 chain_anchors = 0;        ///< pairs extended from a chain anchor
  u64 chain_dropped_seeds = 0;  ///< seeds subsumed by their pair's chain
};

/// Align every task (reads must already be resident via run_read_exchange).
/// Purely local — no communication.
std::vector<AlignmentRecord> run_alignment_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    const std::vector<overlap::AlignmentTask>& tasks, const AlignmentStageConfig& cfg,
    AlignmentStageResult* result = nullptr);

}  // namespace dibella::align
