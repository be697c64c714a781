#pragma once
/// \file reference_kernels.hpp
/// Exact reference alignment kernels: the correctness oracles.
///
/// x-drop extension and seed-anchored alignment are kept here as the
/// original straightforward implementations the hot-path kernels in
/// xdrop.cpp were rebuilt from; the hot path must produce bitwise-identical
/// scores, spans and `cells` counters (tests/test_align_differential.cpp),
/// and bench/bench_kernel_wallclock.cpp reports its speedup relative to
/// them.
///
/// Full and banded Smith-Waterman live only here. No stage runs them: the
/// paper's stage 4 uses seed-and-extend x-drop because full Smith-Waterman
/// is O(nm) (§2). They are the exact local-alignment oracle in tests and
/// the §2 O(nm) / banded O(n * band) cost points in the benches.
///
/// Do not optimize these. Clarity over speed is the point.

#include <string_view>

#include "align/scoring.hpp"
#include "align/xdrop.hpp"
#include "util/common.hpp"

namespace dibella::align {

/// Result of a (banded) Smith-Waterman local alignment.
struct LocalAlignment {
  int score = 0;
  /// Half-open aligned spans; all zero when the best local score is 0. The
  /// banded kernel keeps no traceback, so its begin positions stay zero.
  u64 a_begin = 0, a_end = 0;
  u64 b_begin = 0, b_end = 0;
  u64 cells = 0;  ///< DP cells evaluated
};

}  // namespace dibella::align

namespace dibella::align::ref {

/// Original x-drop extension: allocates three std::vector<int> per call and
/// re-assigns a fresh window per antidiagonal.
ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop);

/// Original seed-anchored alignment: materializes reversed prefix copies of
/// both sequences for the left extension.
SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop);

/// Full Smith-Waterman with traceback: O(nm) time, and it allocates the
/// (n+1)x(m+1) direction matrix, so keep inputs short.
LocalAlignment smith_waterman(std::string_view a, std::string_view b,
                              const Scoring& scoring);

/// Banded Smith-Waterman: only cells with |i - j| <= band are evaluated
/// (score and end positions only, no traceback). The "limited number of
/// mismatches" optimization of §2 that makes pairwise alignment linear in
/// L. Allocates two rows per call; throws on a negative band.
LocalAlignment banded_smith_waterman(std::string_view a, std::string_view b,
                                     const Scoring& scoring, i64 band);

}  // namespace dibella::align::ref
