#include "align/xdrop.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

namespace dibella::align {

namespace {

constexpr int kLanes = 8;  ///< int16 cells per SSE2 register

/// Dead cell of each path. A dead parent plus any substitution or gap stays
/// far below every prune threshold, so it never wins a max, never beats the
/// best score and never survives the prune (the reference kernel's
/// skip-dead-parent rule); every pruned cell is stored back as the sentinel.
constexpr i16 kDead16 = std::numeric_limits<i16>::min();
constexpr i32 kDead32 = std::numeric_limits<i32>::min() / 4;

/// The int16 path moves its score base by this much whenever the best score
/// climbs that far above it.
constexpr int kRebase = 8192;

/// Exactness bound of the int16 path (derivation in xdrop.hpp).
constexpr int kInt16MaxXdrop = 16'000;
constexpr int kInt16MaxStep = 1'000;

/// Band rows carry kPad dead cells in front of element 0 (only element -1
/// is ever read) and room for a last chunk's overhang plus a tail of kLanes
/// dead cells, so every parent load lands in the buffer and reads dead
/// outside its row's written cells.
constexpr std::size_t kPad = kLanes;

inline i64 round_up(i64 x) { return (x + kLanes - 1) / kLanes * kLanes; }

/// Character access for one extension frame: forward (a suffix walked left
/// to right) or reversed (a prefix walked right to left) — the reversed view
/// is what lets the left extension run without materializing reversed
/// copies of both prefixes.
template <bool kReversed>
struct SeqView {
  const char* base = nullptr;
  i64 len = 0;
  char operator[](i64 idx) const {
    return kReversed ? base[len - 1 - idx] : base[idx];
  }
  /// Byte k (k = 0..7) holds (*this)[first + k * kStep], kStep = +1 or -1:
  /// one 8-byte load, byte-swapped when the frame walks memory backwards.
  /// Indices outside [0, len) read as 0; they only feed cells whose
  /// diagonal parent is dead or that are masked as outside the rectangle.
  template <int kStep>
  u64 run8(i64 first) const {
    const i64 low = kStep > 0 ? first : first - (kLanes - 1);
    if (low >= 0 && low + kLanes <= len) [[likely]] {
      u64 w = 0;
      std::memcpy(&w, base + (kReversed ? len - kLanes - low : low), sizeof w);
      return (kStep > 0) == kReversed ? __builtin_bswap64(w) : w;
    }
    return gather8(first, kStep);
  }
  /// run8 where the 8 bytes cross an end of the sequence (the rectangle's
  /// edges only).
  [[gnu::noinline, gnu::cold]] u64 gather8(i64 first, int step) const {
    u64 w = 0;
    for (int k = 0; k < kLanes; ++k) {
      const i64 idx = first + k * step;
      if (idx >= 0 && idx < len) w |= u64{static_cast<u8>((*this)[idx])} << (8 * k);
    }
    return w;
  }
};

/// One stored antidiagonal: element 0 is i-index `base`; [lo, hi] is its
/// live window; `width` cells (rounded up to whole chunks on the int16
/// path) were written from element 0, followed by kLanes dead cells.
template <typename Cell>
struct Row {
  Cell* cells = nullptr;
  i64 base = 0, lo = 1, hi = 0, width = 0;  // lo > hi: empty window
};

/// Best score so far and the first cell (i, d - i) reaching it, in the
/// reference kernel's visiting order (d ascending, then i ascending).
struct Best {
  int score = 0;
  i64 i = 0, d = 0;
};

/// Live range [lo, hi] of one swept antidiagonal (lo > hi: fully dead).
struct Live {
  i64 lo, hi;
};

/// The int16 lane state of one extension: broadcast scoring constants, the
/// score base, and the best score relative to it (also held broadcast).
struct Lanes16 {
  __m128i match, mismatch, gap, xdrop, best, dead, not_dead, iota;
  int base = 0;
  Best best_rel;

  Lanes16(const Scoring& sc, int x)
      : match(_mm_set1_epi16(static_cast<i16>(sc.match))),
        mismatch(_mm_set1_epi16(static_cast<i16>(sc.mismatch))),
        gap(_mm_set1_epi16(static_cast<i16>(sc.gap))),
        xdrop(_mm_set1_epi16(static_cast<i16>(x))),
        best(_mm_setzero_si128()),
        dead(_mm_set1_epi16(kDead16)),
        not_dead(_mm_set1_epi16(std::numeric_limits<i16>::max())),
        iota(_mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7)) {}
};

/// Antidiagonal d over a sweep window [lo, hi] inside the rectangle that
/// holds every cell with a live parent, 8 cells per chunk from `lo`. `diag`
/// and `up` point at the diagonal and up parents of cell lo (the left parent
/// is up + 1). Lanes past hi are masked dead: inside the band they have only
/// dead parents anyway; at the rectangle's edge (hi = n or hi = d) they
/// would otherwise see live ones.
///
/// The prune compares each cell against the best score so far *including
/// the earlier cells of this antidiagonal*, exactly like the reference: an
/// in-register prefix max over the chunk, seeded with the best carried from
/// the previous chunk. A per-antidiagonal best (as in SeqAn) would prune
/// differently and change scores and `cells`.
template <bool kReversed>
Live sweep(Lanes16& L, SeqView<kReversed> a, SeqView<kReversed> b, i64 d, i64 lo,
           i64 hi, const i16* diag, const i16* up, i16* out) {
  // Carried state lives in locals: the row stores below may alias L.
  __m128i best = L.best;
  Best best_rel = L.best_rel;
  const i64 width = hi - lo + 1;
  i64 live_lo = hi + 1, live_hi = lo - 1;
  for (i64 c = 0; c < width; c += kLanes) {
    // Lane k is cell i = lo + c + k, comparing a[i - 1] with b[d - i - 1].
    const __m128i chars_a =
        _mm_cvtsi64_si128(static_cast<long long>(a.template run8<+1>(lo + c - 1)));
    const __m128i chars_b =
        _mm_cvtsi64_si128(static_cast<long long>(b.template run8<-1>(d - lo - c - 1)));
    const __m128i eq8 = _mm_cmpeq_epi8(chars_a, chars_b);
    const __m128i eq = _mm_unpacklo_epi8(eq8, eq8);
    const __m128i sub =
        _mm_or_si128(_mm_and_si128(eq, L.match), _mm_andnot_si128(eq, L.mismatch));

    const __m128i p_diag = _mm_loadu_si128(reinterpret_cast<const __m128i*>(diag + c));
    const __m128i p_up = _mm_loadu_si128(reinterpret_cast<const __m128i*>(up + c));
    const __m128i p_left = _mm_loadu_si128(reinterpret_cast<const __m128i*>(up + c + 1));
    __m128i s = _mm_max_epi16(_mm_adds_epi16(p_diag, sub),
                              _mm_adds_epi16(_mm_max_epi16(p_up, p_left), L.gap));
    if (c + kLanes > width) {
      const __m128i past_hi =
          _mm_cmpgt_epi16(L.iota, _mm_set1_epi16(static_cast<i16>(width - c - 1)));
      s = _mm_or_si128(_mm_andnot_si128(past_hi, s), _mm_and_si128(past_hi, L.dead));
    }

    // Inclusive prefix max of s over the chunk, then of (best, s[0..k]).
    // The zeros shifted in are harmless: best is >= 0 relative to the base.
    // Only the last max depends on the previous chunk.
    __m128i run = _mm_max_epi16(s, _mm_slli_si128(s, 2));
    run = _mm_max_epi16(run, _mm_slli_si128(run, 4));
    run = _mm_max_epi16(run, _mm_slli_si128(run, 8));
    const __m128i chunk_top = _mm_shuffle_epi32(_mm_shufflehi_epi16(run, 0xFF), 0xFF);
    run = _mm_max_epi16(run, best);
    best = _mm_max_epi16(best, chunk_top);
    // When the best improves, the first lane reaching it is the reference's
    // last strict `s > best` update.
    const int top = static_cast<i16>(_mm_cvtsi128_si32(best));
    if (top > best_rel.score) {
      const unsigned at = static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi16(s, best)));
      best_rel = {top, lo + c + std::countr_zero(at) / 2, d};
    }

    // x-drop prune: s < run - X dies and is stored as the sentinel.
    const __m128i pruned = _mm_cmpgt_epi16(_mm_sub_epi16(run, L.xdrop), s);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + c),
                     _mm_min_epi16(s, _mm_xor_si128(pruned, L.not_dead)));
    const unsigned live = ~static_cast<unsigned>(_mm_movemask_epi8(pruned)) & 0xFFFFu;
    if (live != 0) {
      if (live_lo > hi) live_lo = lo + c + std::countr_zero(live) / 2;
      live_hi = lo + c + (31 - std::countl_zero(live)) / 2;
    }
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + round_up(width)), L.dead);
  L.best = best;
  L.best_rel = best_rel;
  return {live_lo, live_hi};
}

/// The int32 path: the same recurrence one cell at a time, for calls outside
/// the int16 exactness bound. Scores are absolute (no base).
struct Cells32 {
  int match, mismatch, gap, xdrop;
  Best best;
};

template <bool kReversed>
Live sweep(Cells32& C, SeqView<kReversed> a, SeqView<kReversed> b, i64 d, i64 lo,
           i64 hi, const i32* diag, const i32* up, i32* out) {
  const i64 width = hi - lo + 1;
  i64 live_lo = hi + 1, live_hi = lo - 1;
  for (i64 k = 0; k < width; ++k) {
    const i64 i = lo + k;
    // i = 0 or j = 0 has a dead diagonal parent: its characters don't matter.
    const bool eq = i > 0 && i < d && a[i - 1] == b[d - i - 1];
    const int s = std::max(diag[k] + (eq ? C.match : C.mismatch),
                           std::max(up[k], up[k + 1]) + C.gap);
    if (s > C.best.score) C.best = {s, i, d};
    if (s >= C.best.score - C.xdrop) {
      out[k] = s;
      if (live_lo > hi) live_lo = i;
      live_hi = i;
    } else {
      out[k] = kDead32;
    }
  }
  for (i64 k = width; k < width + kLanes; ++k) out[k] = kDead32;
  return {live_lo, live_hi};
}

/// The antidiagonal x-drop DP of ref::xdrop_extend over dead-padded band
/// rows: the three rows (antidiagonals d-2, d-1, d) live in the workspace
/// and rotate by pointer swap, "trimming" a window to its live cells is
/// bookkeeping, and the padding makes every parent read unconditional.
/// Scores, spans, and the `cells` counter are bitwise-identical to the
/// reference kernel (enforced by tests/test_align_differential.cpp).
template <typename Cell, typename Lanes, bool kReversed>
ExtendResult xdrop_extend_impl(SeqView<kReversed> a, SeqView<kReversed> b, Lanes L,
                               std::vector<Cell> (&bands)[3]) {
  constexpr Cell kDead = std::is_same_v<Cell, i16> ? kDead16 : static_cast<Cell>(kDead32);
  const i64 n = a.len;
  const i64 m = b.len;
  ExtendResult out;  // the empty extension scores 0 at (0,0)
  if (n == 0 && m == 0) return out;

  // An antidiagonal of the [0,n] x [0,m] rectangle holds at most
  // min(n, m) + 1 cells, so one sizing check up front covers the whole run.
  const std::size_t cap =
      kPad + static_cast<std::size_t>(round_up(std::min(n, m) + 1)) + kLanes;
  Row<Cell> rows[3];
  for (int r = 0; r < 3; ++r) {
    if (bands[r].size() < cap) bands[r].resize(cap);
    std::fill(bands[r].begin(), bands[r].begin() + kPad + 2 * kLanes, kDead);
    rows[r].cells = bands[r].data() + kPad;
  }
  // Entering the loop at d = 1, prev1 is the d = 0 row (single live cell
  // (0,0) = 0) and prev2 is empty.
  Row<Cell> prev2 = rows[0], prev1 = rows[1], cur = rows[2];
  prev1.cells[0] = 0;
  prev1.lo = prev1.hi = 0;
  prev1.width = 1;

  i64 win_lo = 0, win_hi = 0;  // the reference's window of antidiagonal d-1
  for (i64 d = 1; d <= n + m; ++d) {
    // The reference's window [lo, hi]: parents reach i from up (i-1 in
    // prev1), left (i in prev1) and diag (i-1 in prev2). It sets `cells`.
    i64 lo = std::min(prev1.lo, prev2.lo + 1);
    i64 hi = std::max(prev1.hi + 1, prev2.hi + 1);
    lo = std::max(lo, std::max<i64>(0, d - m));
    hi = std::min(hi, std::min<i64>(n, d));
    if (lo > hi) break;
    // The sweep runs over d-1's window grown by one cell and clipped to the
    // rectangle. lo never falls and hi grows by at most one per
    // antidiagonal, so this contains [lo, hi]; its extra cells have only
    // dead parents. It is known an antidiagonal early, so the loads below
    // need not wait for d-1's live range. Neither row base exceeds slo: the
    // reads start at element -1 at the lowest.
    const i64 slo = std::max(win_lo, std::max<i64>(0, d - m));
    const i64 shi = std::min(win_hi + 1, std::min<i64>(n, d));
    const Live live = sweep(L, a, b, d, slo, shi, prev2.cells + (slo - 1 - prev2.base),
                            prev1.cells + (slo - 1 - prev1.base), cur.cells);
    out.cells += static_cast<u64>(hi - lo + 1);
    win_lo = lo;
    win_hi = hi;
    if (live.lo > live.hi) break;  // antidiagonal fully dead: terminate
    cur.base = slo;
    cur.lo = live.lo;
    cur.hi = live.hi;
    cur.width = std::is_same_v<Cell, i16> ? round_up(shi - slo + 1) : shi - slo + 1;
    if constexpr (std::is_same_v<Cell, i16>) {
      // Move the base once the best score is kRebase above it; only the two
      // rows still to be read hold scores (saturation keeps dead cells dead).
      if (L.best_rel.score >= kRebase) {
        const __m128i step = _mm_set1_epi16(kRebase);
        for (const auto& [cells, width] : {std::pair{cur.cells, cur.width},
                                           std::pair{prev1.cells, prev1.width}}) {
          for (i64 k = 0; k < width; k += kLanes) {
            auto* p = reinterpret_cast<__m128i*>(cells + k);
            _mm_storeu_si128(p, _mm_subs_epi16(_mm_loadu_si128(p), step));
          }
        }
        L.base += kRebase;
        L.best_rel.score -= kRebase;
        L.best = _mm_set1_epi16(static_cast<i16>(L.best_rel.score));
      }
    }
    // Rotate: cur becomes prev1, prev1 becomes prev2, old prev2 is recycled.
    const Row<Cell> recycled = prev2;
    prev2 = prev1;
    prev1 = cur;
    cur = recycled;
  }

  Best best;
  if constexpr (std::is_same_v<Cell, i16>) {
    best = L.best_rel;
    best.score += L.base;
  } else {
    best = L.best;
  }
  out.score = best.score;
  out.ext_a = static_cast<u64>(best.i);
  out.ext_b = static_cast<u64>(best.d - best.i);
  return out;
}

/// Every extension enters here: the int16 lanes when the call is inside
/// their exactness bound (every preset and default is), else the int32 path.
template <bool kReversed>
ExtendResult extend(SeqView<kReversed> a, SeqView<kReversed> b, const Scoring& sc,
                    int xdrop, Workspace& ws) {
  DIBELLA_CHECK(xdrop >= 0, "xdrop must be non-negative");
  const int step = std::max({std::abs(sc.match), std::abs(sc.mismatch), std::abs(sc.gap)});
  if (xdrop <= kInt16MaxXdrop && step <= kInt16MaxStep) {
    return xdrop_extend_impl(a, b, Lanes16(sc, xdrop), ws.xband);
  }
  return xdrop_extend_impl(
      a, b, Cells32{sc.match, sc.mismatch, sc.gap, std::min(xdrop, kMaxXdrop), {}},
      ws.xband_wide);
}

}  // namespace

ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop, Workspace& ws) {
  return extend(SeqView<false>{a.data(), static_cast<i64>(a.size())},
                SeqView<false>{b.data(), static_cast<i64>(b.size())}, scoring, xdrop, ws);
}

ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop) {
  Workspace ws;
  return xdrop_extend(a, b, scoring, xdrop, ws);
}

SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop,
                              Workspace& ws) {
  DIBELLA_CHECK(pos_a + static_cast<u64>(k) <= a.size() &&
                    pos_b + static_cast<u64>(k) <= b.size(),
                "align_from_seed: seed outside sequence bounds");
  SeedAlignment out;

  // Left extension: the reversed prefixes ending at the seed start, walked
  // through the reversed index view — no heap copies.
  ExtendResult left = extend(SeqView<true>{a.data(), static_cast<i64>(pos_a)},
                             SeqView<true>{b.data(), static_cast<i64>(pos_b)}, scoring,
                             xdrop, ws);

  // Right extension: suffixes after the seed.
  const u64 a_tail = pos_a + static_cast<u64>(k);
  const u64 b_tail = pos_b + static_cast<u64>(k);
  ExtendResult right = extend(
      SeqView<false>{a.data() + a_tail, static_cast<i64>(a.size() - a_tail)},
      SeqView<false>{b.data() + b_tail, static_cast<i64>(b.size() - b_tail)}, scoring,
      xdrop, ws);

  out.score = k * scoring.match + left.score + right.score;
  out.a_begin = pos_a - left.ext_a;
  out.b_begin = pos_b - left.ext_b;
  out.a_end = a_tail + right.ext_a;
  out.b_end = b_tail + right.ext_b;
  out.cells = left.cells + right.cells;
  return out;
}

SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop) {
  Workspace ws;
  return align_from_seed(a, b, pos_a, pos_b, k, scoring, xdrop, ws);
}

}  // namespace dibella::align
