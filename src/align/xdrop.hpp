#pragma once
/// \file xdrop.hpp
/// X-drop seed extension (Zhang, Schwartz, Wagner, Miller 2000) — the
/// pairwise kernel of the alignment stage (§2, §9).
///
/// From a shared seed, the alignment is extended independently to the left
/// and right by a banded antidiagonal dynamic program that abandons any cell
/// whose score falls more than X below the best score seen so far. On
/// divergent sequences the live band dies quickly ("the x-drop algorithm
/// returns much faster when the two sequences are divergent", §9 — the
/// source of alignment-stage load imbalance), on homologous sequences the
/// cost is near-linear in the overlap length.
///
/// The kernel is exact SSE2 (the x86-64 baseline: no extra compile flag, no
/// runtime dispatch) and allocation-free: band rows come from a
/// caller-provided align::Workspace, window trimming is bookkeeping (no
/// copies), and the left extension walks the reversed prefixes in place.
///
/// Lane layout. Scores are int16 offsets from a per-extension base, 8 cells
/// per register. Each antidiagonal runs in 8-lane chunks over a sweep
/// window: the previous antidiagonal's window grown by one cell, which
/// contains the reference's window and is known an antidiagonal early, so
/// the loads need not wait for the latest live range. Parents come from
/// unaligned loads of dead-padded rows (see Workspace::xband); a chunk
/// compares its 8 character pairs from two 8-byte loads, byte-swapping the
/// sequence that runs backwards in its frame. Additions saturate, so a dead
/// cell (-32768) stays far below every prune threshold, and every pruned
/// cell is stored back as -32768. Swept cells outside the reference's
/// window have only dead parents, so lanes are masked only at the DP
/// rectangle's edge, and `cells` counts the reference's window.
///
/// Prefix max. The reference prunes each cell against the best score so far
/// *including the earlier cells of the same antidiagonal*. The kernel keeps
/// that: an in-register prefix max over each chunk, carried across chunks.
/// Pruning against a per-antidiagonal best (as SeqAn does) would change
/// scores, spans and `cells`.
///
/// Base moves and the exactness bound. The base moves up by 8192 whenever
/// the best score is 8192 above it (a saturating subtract over the two rows
/// still to be read). With M = max(|match|, |mismatch|, |gap|) and X =
/// xdrop, stored live offsets lie in [-X - 2M, 8192 + 2M] and a dead
/// parent's candidate in [-32768, -32768 + M], so the int16 arithmetic is
/// exact while X + 4M < 32768. The kernel takes the int16 lanes for
/// X <= 16,000 and M <= 1,000, which every preset and default satisfies.
///
/// int32 path. Any other call runs the same recurrence one cell at a time
/// on int32 scores (Workspace::xband_wide), with X capped at kMaxXdrop.
///
/// Either path is bitwise-identical (scores, spans, `cells`) to the retained
/// straightforward implementation in align::ref (reference_kernels.hpp); the
/// differential suite in tests/test_align_differential.cpp enforces this on
/// both sides of the int16/int32 cut.
///
/// The paper calls SeqAn's implementation; this is a from-scratch equivalent
/// property-tested against our exact Smith-Waterman (see tests/test_align.cpp).

#include <string_view>

#include "align/scoring.hpp"
#include "align/workspace.hpp"
#include "util/common.hpp"

namespace dibella::align {

/// Largest x-drop the kernels honour: larger values behave identically for
/// any sequences shorter than ~25 Mbp (|score| < 10^8 always holds there),
/// and the driver rejects them.
inline constexpr int kMaxXdrop = 100'000'000;

/// Result of extending an alignment from position (0,0) into prefixes of
/// two sequences.
struct ExtendResult {
  int score = 0;    ///< best extension score found (>= 0; empty extension = 0)
  u64 ext_a = 0;    ///< bases of `a` consumed by the best extension
  u64 ext_b = 0;    ///< bases of `b` consumed by the best extension
  u64 cells = 0;    ///< DP cells evaluated (work metric for load-imbalance study)
};

/// Extend an alignment of a[0..) vs b[0..) forward from their starts,
/// returning the best-scoring pair of prefixes under `scoring`, abandoning
/// paths that drop more than `xdrop` below the running best. To extend
/// leftward, pass reversed sequences (or use align_from_seed, which walks
/// the reversed prefixes copy-free). `xdrop` must be >= 0 (checked) and is
/// treated as capped at kMaxXdrop.
ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop, Workspace& ws);

/// Convenience overload with a throwaway workspace (tests, one-off calls).
ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop);

/// One seed-anchored pairwise alignment: seed of length k at a[pos_a..],
/// b[pos_b..] (sequences already in the same orientation). Extends left and
/// right with x-drop.
struct SeedAlignment {
  int score = 0;       ///< total score including the seed match
  u64 a_begin = 0, a_end = 0;  ///< half-open aligned span in `a`
  u64 b_begin = 0, b_end = 0;  ///< half-open aligned span in `b`
  u64 cells = 0;       ///< DP work
};

SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop,
                              Workspace& ws);

/// Convenience overload with a throwaway workspace (tests, one-off calls).
SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop);

}  // namespace dibella::align
