#pragma once
/// \file workspace.hpp
/// Reusable scratch arena for the alignment kernels.
///
/// The alignment stage is the pipeline's hottest loop (§9: the largest and
/// most load-imbalanced stage). A rank constructs one Workspace and threads
/// it through run_alignment_stage -> align_from_seed -> xdrop_extend;
/// every kernel invocation then borrows buffers from the arena instead of
/// allocating. Buffers only ever grow, so after a warm-up pass over the
/// largest task the steady-state alignment loop performs zero heap
/// allocations per seed (tests/test_align_differential.cpp pins this down
/// with a counting operator new). The exact Smith-Waterman oracles in
/// align::ref allocate per call and take no Workspace.
///
/// A Workspace is cheap to default-construct; the no-workspace kernel
/// overloads create a throwaway one, so casual callers keep the old API.
/// Not thread-safe: one Workspace per rank/thread.

#include <string>
#include <vector>

#include "util/common.hpp"

namespace dibella::align {

struct Workspace {
  /// X-drop antidiagonal bands: three rotating rows (d-2, d-1, d) of int16
  /// score offsets from a per-extension base that moves up by 8192 as the
  /// best score climbs, 8 lanes per SSE2 chunk (xdrop.hpp has the
  /// exactness bound). Each row is written in whole chunks from element 0
  /// (the i-index where its sweep starts), behind 8 dead cells and followed
  /// by 8 more, so every parent load is an unconditional unaligned load
  /// that reads dead (-32768) outside the row's cells. Windows are trimmed
  /// by bookkeeping only, so rotation is pointer swaps. Each row grows to
  /// at most min(n, m) + 24 cells of the longest extension.
  std::vector<i16> xband[3];

  /// The same rows as int32 scores, used only by calls outside the int16
  /// exactness bound (see xdrop.hpp); no preset or default reaches them.
  std::vector<i32> xband_wide[3];

  /// Reverse-complement scratch for reverse-orientation pairs (hoisted out
  /// of the alignment stage's per-task context).
  std::string b_rc;
};

}  // namespace dibella::align
