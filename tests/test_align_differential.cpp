// Differential property suite for the allocation-free x-drop kernels: the
// optimized implementations must produce bitwise-identical scores, spans,
// and `cells` counters to the retained reference kernels (align::ref) across randomized (length, error rate,
// scoring, x-drop) combinations — including empty and one-sided extensions,
// reverse-complement-orientation seeds, every length pair around the 8-lane
// chunk width, pipeline-shaped 10 kb pairs, extensions long enough to move
// the int16 score base, and calls on both sides of the int16/int32 cut.
//
// This binary also replaces the global operator new/delete with counting
// versions to prove the tentpole claim directly: after a warm-up pass, the
// steady-state alignment loop performs zero heap allocations per seed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "align/reference_kernels.hpp"
#include "align/workspace.hpp"
#include "align/xdrop.hpp"
#include "kmer/dna.hpp"
#include "util/random.hpp"

// --- counting allocator ------------------------------------------------------
// Counts every scalar/array new in the process. The zero-allocation test
// reads the counter around a loop that contains no gtest machinery.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs our malloc-backed operator new with the free() inside our
// operator delete and flags the pair as mismatched; they are in fact the
// matched halves of the same replacement allocator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

// -----------------------------------------------------------------------------

namespace da = dibella::align;
using dibella::u64;

namespace {

std::string random_dna(dibella::util::Xoshiro256& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

/// `s` with substitutions, insertions and deletions at `rate`. When `pos` is
/// given, (*pos)[k] is the output index of s[k], or -1 where s[k] was
/// substituted or deleted.
std::string mutate(const std::string& s, double rate, dibella::util::Xoshiro256& rng,
                   std::vector<dibella::i64>* pos = nullptr) {
  std::string out;
  if (pos) pos->assign(s.size(), -1);
  for (std::size_t k = 0; k < s.size(); ++k) {
    const char c = s[k];
    if (rng.bernoulli(rate)) {
      double roll = rng.uniform();
      if (roll < 0.4) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
      } else if (roll < 0.7) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
        if (pos) (*pos)[k] = static_cast<dibella::i64>(out.size());
        out.push_back(c);
      }  // else deletion
    } else {
      if (pos) (*pos)[k] = static_cast<dibella::i64>(out.size());
      out.push_back(c);
    }
  }
  return out;
}

/// Partner of `a` at a given error model; rate < 0 means unrelated sequence.
std::string partner(const std::string& a, double rate, dibella::util::Xoshiro256& rng) {
  if (rate < 0) return random_dna(rng, a.size());
  return mutate(a, rate, rng);
}

void expect_extend_equal(const da::ExtendResult& got, const da::ExtendResult& want,
                         const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.ext_a, want.ext_a) << what;
  EXPECT_EQ(got.ext_b, want.ext_b) << what;
  EXPECT_EQ(got.cells, want.cells) << what;
}

void expect_seed_equal(const da::SeedAlignment& got, const da::SeedAlignment& want,
                       const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.a_begin, want.a_begin) << what;
  EXPECT_EQ(got.a_end, want.a_end) << what;
  EXPECT_EQ(got.b_begin, want.b_begin) << what;
  EXPECT_EQ(got.b_end, want.b_end) << what;
  EXPECT_EQ(got.cells, want.cells) << what;
}

const std::vector<da::Scoring> kScorings = {
    {1, -2, -2},  // project default
    {1, -1, -1},  // the classic scheme the scoring header warns about
    {2, -3, -4},
};

// rate -1 = unrelated random partner (one-sided / dead extensions).
const std::vector<double> kErrorRates = {0.0, 0.05, 0.15, 0.30, -1.0};

}  // namespace

TEST(AlignDifferential, XdropExtendMatchesReferenceEverywhere) {
  dibella::util::Xoshiro256 rng(101);
  da::Workspace ws;
  const std::vector<std::size_t> lens = {0, 1, 2, 3, 17, 64, 200};
  const std::vector<int> xdrops = {1, 5, 25, 1000000};
  int cases = 0;
  for (std::size_t len : lens) {
    for (double rate : kErrorRates) {
      for (const auto& sc : kScorings) {
        for (int xd : xdrops) {
          std::string a = random_dna(rng, len);
          std::string b = partner(a, rate, rng);
          auto want = da::ref::xdrop_extend(a, b, sc, xd);
          auto got = da::xdrop_extend(a, b, sc, xd, ws);
          expect_extend_equal(got, want,
                              "len=" + std::to_string(len) + " rate=" + std::to_string(rate) +
                                  " xd=" + std::to_string(xd));
          ++cases;
        }
      }
    }
  }
  // One-sided extensions: one sequence empty.
  for (std::size_t len : {1u, 5u, 40u}) {
    for (const auto& sc : kScorings) {
      for (int xd : {2, 25}) {
        std::string a = random_dna(rng, len);
        auto want_a = da::ref::xdrop_extend(a, "", sc, xd);
        auto got_a = da::xdrop_extend(a, "", sc, xd, ws);
        expect_extend_equal(got_a, want_a, "one-sided a, len=" + std::to_string(len));
        auto want_b = da::ref::xdrop_extend("", a, sc, xd);
        auto got_b = da::xdrop_extend("", a, sc, xd, ws);
        expect_extend_equal(got_b, want_b, "one-sided b, len=" + std::to_string(len));
        cases += 2;
      }
    }
  }
  EXPECT_GE(cases, 400);
}

TEST(AlignDifferential, AlignFromSeedMatchesReferenceOnRandomSeeds) {
  dibella::util::Xoshiro256 rng(202);
  da::Workspace ws;
  int cases = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t len_a = 20 + rng.uniform_below(380);
    const double rate = kErrorRates[rng.uniform_below(kErrorRates.size())];
    const auto& sc = kScorings[trial % kScorings.size()];
    const int xd = std::vector<int>{1, 10, 50, 500}[rng.uniform_below(4)];
    const int k = std::vector<int>{4, 11, 17}[rng.uniform_below(3)];
    std::string a = random_dna(rng, len_a);
    std::string b = partner(a, rate, rng);
    if (a.size() < static_cast<std::size_t>(k) || b.size() < static_cast<std::size_t>(k)) {
      continue;
    }
    // Random anchor, plus the two edge anchors (empty left / empty right
    // extension) every few trials.
    std::vector<std::pair<u64, u64>> anchors;
    anchors.emplace_back(rng.uniform_below(a.size() - k + 1),
                         rng.uniform_below(b.size() - k + 1));
    if (trial % 4 == 0) {
      anchors.emplace_back(0, 0);  // empty left extension
      anchors.emplace_back(a.size() - k, b.size() - k);  // empty right extension
    }
    for (auto [pos_a, pos_b] : anchors) {
      auto want = da::ref::align_from_seed(a, b, pos_a, pos_b, k, sc, xd);
      auto got = da::align_from_seed(a, b, pos_a, pos_b, k, sc, xd, ws);
      expect_seed_equal(got, want, "trial=" + std::to_string(trial) +
                                       " pos_a=" + std::to_string(pos_a) +
                                       " pos_b=" + std::to_string(pos_b));
      ++cases;
    }
  }
  EXPECT_GE(cases, 120);
}

TEST(AlignDifferential, AlignFromSeedMatchesReferenceInRcFrames) {
  // Reverse-complement-orientation seeds, mapped into the RC frame exactly
  // as the alignment stage does it.
  dibella::util::Xoshiro256 rng(303);
  da::Workspace ws;
  const int k = 17;
  for (int trial = 0; trial < 40; ++trial) {
    std::string genome = random_dna(rng, 600 + rng.uniform_below(400));
    const std::size_t half = genome.size() / 2;
    std::string a = mutate(genome.substr(0, 2 * half / 3 + k), 0.1, rng);
    std::string b_fwd =
        dibella::kmer::reverse_complement(mutate(genome.substr(half / 3), 0.1, rng));
    // The stage aligns a against rc(b_fwd) — build that frame and pick a
    // random in-bounds seed.
    std::string b_rc = dibella::kmer::reverse_complement(b_fwd);
    if (a.size() < static_cast<std::size_t>(k) || b_rc.size() < static_cast<std::size_t>(k)) {
      continue;
    }
    u64 pos_a = rng.uniform_below(a.size() - k + 1);
    u64 pos_b = rng.uniform_below(b_rc.size() - k + 1);
    const auto& sc = kScorings[trial % kScorings.size()];
    auto want = da::ref::align_from_seed(a, b_rc, pos_a, pos_b, k, sc, 50);
    auto got = da::align_from_seed(a, b_rc, pos_a, pos_b, k, sc, 50, ws);
    expect_seed_equal(got, want, "rc trial=" + std::to_string(trial));
  }
}

TEST(AlignDifferential, XdropMatchesReferenceAroundTheLaneWidth) {
  // Every sequence-length pair in 0..17 (around the 8-lane chunk width), so
  // the chunks that straddle the DP rectangle's edges run, in the forward
  // frame (xdrop_extend) and the reversed frame (the left extension of
  // align_from_seed with the seed at the end of both sequences).
  dibella::util::Xoshiro256 rng(707);
  da::Workspace ws;
  const da::Scoring sc;
  int cases = 0;
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::size_t m = 0; m <= 17; ++m) {
      for (double rate : {0.0, 0.15, -1.0}) {
        for (int xd : {0, 1, 5, 25}) {
          const std::string genome = random_dna(rng, std::max(n, m));
          const std::string a = genome.substr(0, n);
          const std::string b =
              rate < 0 ? random_dna(rng, m) : mutate(genome, rate, rng).substr(0, m);
          const std::string what = "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                                   " rate=" + std::to_string(rate) +
                                   " xd=" + std::to_string(xd);
          expect_extend_equal(da::xdrop_extend(a, b, sc, xd, ws),
                              da::ref::xdrop_extend(a, b, sc, xd), what);
          const std::string seed = "ACGTA";
          expect_seed_equal(
              da::align_from_seed(a + seed, b + seed, n, b.size(), 5, sc, xd, ws),
              da::ref::align_from_seed(a + seed, b + seed, n, b.size(), 5, sc, xd),
              "reversed frame " + what);
          cases += 2;
        }
      }
    }
  }
  EXPECT_EQ(cases, 18 * 18 * 3 * 4 * 2);
}

TEST(AlignDifferential, PipelineShapedPairsMatchReference) {
  // ~10 kb reads at 15% error (the E. coli presets' read length), anchored
  // on a genome k-mer both reads copied verbatim, so both extensions run
  // along the true diagonal through thousands of antidiagonals, in the
  // forward frame and with b stored reverse-complemented as the alignment
  // stage sees reverse-orientation pairs.
  dibella::util::Xoshiro256 rng(808);
  da::Workspace ws;
  const da::Scoring sc;
  const int k = 17;
  const std::size_t len = 10'000, shift = len / 2;
  int pairs = 0;
  while (pairs < 8) {
    const std::string genome = random_dna(rng, len + shift);
    std::vector<dibella::i64> map_a, map_b;
    const std::string a = mutate(genome.substr(0, len), 0.15, rng, &map_a);
    const std::string b = mutate(genome.substr(shift, len), 0.15, rng, &map_b);
    auto kept = [&](const std::vector<dibella::i64>& map, std::size_t g) {
      for (int d = 0; d < k; ++d) {
        if (map[g + d] < 0 || map[g + d] != map[g] + d) return false;
      }
      return true;
    };
    std::size_t g = shift + shift / 2;
    while (g + k <= len && !(kept(map_a, g) && kept(map_b, g - shift))) ++g;
    if (g + k > len) continue;  // no shared k-mer survived: draw again
    const u64 pos_a = static_cast<u64>(map_a[g]);
    const u64 pos_b = static_cast<u64>(map_b[g - shift]);
    const bool rc = pairs % 2 == 1;
    std::string_view b_frame = b;
    if (rc) {
      // The stored read is rc(b); the stage flips it back into a's frame.
      const std::string stored = dibella::kmer::reverse_complement(b);
      dibella::kmer::reverse_complement_into(stored, ws.b_rc);
      b_frame = ws.b_rc;
    }
    const auto want = da::ref::align_from_seed(a, std::string(b_frame), pos_a, pos_b, k, sc, 25);
    const auto got = da::align_from_seed(a, b_frame, pos_a, pos_b, k, sc, 25, ws);
    expect_seed_equal(got, want, "pipeline-shaped pair " + std::to_string(pairs));
    // A true overlap: the extension spans most of the 5 kb shared region.
    EXPECT_GT(got.a_end - got.a_begin, 3'000u) << pairs;
    ++pairs;
  }
}

TEST(AlignDifferential, LongExtensionMovesTheScoreBase) {
  // A 40 kb pair at 1% error scores ~38k, past what int16 holds: the lanes
  // must move their score base (every 8192 above it) four times, in both
  // frames.
  dibella::util::Xoshiro256 rng(909);
  da::Workspace ws;
  const da::Scoring sc;
  const std::string a = random_dna(rng, 40'000);
  const std::string b = mutate(a, 0.01, rng);
  const auto fwd = da::xdrop_extend(a, b, sc, 25, ws);
  expect_extend_equal(fwd, da::ref::xdrop_extend(a, b, sc, 25), "forward frame");
  EXPECT_GT(fwd.score, 32'767);
  // Seed at the very end: the whole pair is one left (reversed) extension.
  const std::string seed = "ACGTACGT";
  const auto rev = da::align_from_seed(a + seed, b + seed, a.size(), b.size(), 8, sc, 25, ws);
  expect_seed_equal(rev,
                    da::ref::align_from_seed(a + seed, b + seed, a.size(), b.size(), 8, sc, 25),
                    "reversed frame");
  EXPECT_GT(rev.score, 32'767);
}

TEST(AlignDifferential, XdropMatchesReferenceAcrossTheInt16Bound) {
  // The int16 lanes take xdrop <= 16000 with every |score| <= 1000; one
  // past either limit takes the int32 path. Both sides must match the
  // reference, including the extreme in-bound scoring whose score base
  // moves every few matches.
  dibella::util::Xoshiro256 rng(1010);
  da::Workspace ws;
  const std::vector<da::Scoring> scorings = {
      {1, -2, -2}, {1000, -1000, -1000}, {1001, -2, -2}, {1, -1001, -2}, {3, -1000, -1001}};
  int cases = 0;
  for (const auto& sc : scorings) {
    for (int xd : {25, 16'000, 16'001}) {
      for (double rate : {0.05, 0.3, -1.0}) {
        const std::string a = random_dna(rng, 120 + rng.uniform_below(80));
        const std::string b = partner(a, rate, rng);
        const std::string what = "match=" + std::to_string(sc.match) +
                                 " mismatch=" + std::to_string(sc.mismatch) +
                                 " gap=" + std::to_string(sc.gap) +
                                 " xd=" + std::to_string(xd) + " rate=" + std::to_string(rate);
        expect_extend_equal(da::xdrop_extend(a, b, sc, xd, ws),
                            da::ref::xdrop_extend(a, b, sc, xd), what);
        const u64 pa = a.size() / 2, pb = std::min<u64>(b.size() / 2, b.size() - 4);
        if (b.size() >= 8) {
          expect_seed_equal(da::align_from_seed(a, b, pa, pb, 4, sc, xd, ws),
                            da::ref::align_from_seed(a, b, pa, pb, 4, sc, xd), "seed " + what);
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 5 * 3 * 3);
}

TEST(AlignDifferential, NegativeXdropIsRejected) {
  da::Workspace ws;
  EXPECT_THROW(da::xdrop_extend("ACGT", "ACGT", da::Scoring{}, -1, ws), dibella::Error);
  EXPECT_THROW(da::align_from_seed("ACGTACGT", "ACGTACGT", 2, 2, 3, da::Scoring{}, -5, ws),
               dibella::Error);
}

TEST(AlignDifferential, SteadyStateAlignmentLoopIsAllocationFree) {
  // Build a PacBio-like workload: overlapping noisy read pairs with known
  // anchors, including reverse-complement-orientation pairs.
  dibella::util::Xoshiro256 rng(606);
  const int k = 17;
  struct Task {
    std::string a, b;
    u64 pos_a, pos_b;
    bool same_orientation;
  };
  std::vector<Task> tasks;
  for (int t = 0; t < 24; ++t) {
    std::string genome = random_dna(rng, 2400);
    std::string a = mutate(genome.substr(0, 1600), 0.12, rng);
    std::string b = mutate(genome.substr(800, 1600), 0.12, rng);
    bool rc = t % 3 == 0;
    if (rc) b = dibella::kmer::reverse_complement(b);
    // Anchor roughly in the middle of the shared region of both reads
    // (positions need not be an exact k-mer match for the kernel).
    tasks.push_back(Task{std::move(a), std::move(b), 1100, 300, !rc});
  }

  da::Scoring sc;
  da::Workspace ws;
  auto run_pass = [&]() {
    u64 checksum = 0;
    for (const auto& t : tasks) {
      std::string_view bseq;
      if (t.same_orientation) {
        bseq = t.b;
      } else {
        // The alignment stage's hoisted reverse-complement buffer.
        dibella::kmer::reverse_complement_into(t.b, ws.b_rc);
        bseq = ws.b_rc;
      }
      if (t.pos_a + k > t.a.size() || t.pos_b + k > bseq.size()) continue;
      auto sa = da::align_from_seed(t.a, bseq, t.pos_a, t.pos_b, k, sc, 25, ws);
      checksum += static_cast<u64>(sa.score) + sa.cells;
    }
    return checksum;
  };

  const u64 first = run_pass();  // warm-up: buffers grow to workload maxima
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const u64 second = run_pass();
  const std::uint64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(second, first);  // deterministic kernels
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state alignment loop must not allocate";
}
