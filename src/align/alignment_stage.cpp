#include "align/alignment_stage.hpp"

#include "align/chain.hpp"
#include "align/xdrop.hpp"
#include "kmer/dna.hpp"
#include "kmer/kmer.hpp"

namespace dibella::align {

std::vector<AlignmentRecord> run_alignment_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    const std::vector<overlap::AlignmentTask>& tasks, const AlignmentStageConfig& cfg,
    AlignmentStageResult* result) {
  ctx.comm.set_stage("align");
  AlignmentStageResult res;
  std::vector<AlignmentRecord> records;
  records.reserve(tasks.size());

  // One workspace for the whole stage: the x-drop bands and the
  // reverse-complement buffer are reused across every task and seed, so the
  // steady-state loop performs zero heap allocations per seed.
  Workspace ws;

  ChainParams chain_params;
  chain_params.k = cfg.k;

  obs::Span extend_span = ctx.span("align:extend");
  u64 touched_bytes = 0;
  u64 revcomp_bytes = 0;
  for (const auto& task : tasks) {
    const std::string& a = store.get(task.rid_a).seq;
    const std::string& b = store.get(task.rid_b).seq;
    touched_bytes += a.size() + b.size();
    ++res.pairs_aligned;

    // ws.b_rc holds the reverse complement of *this* task's b once a
    // reverse-orientation seed appears; the flag (not the buffer) tracks
    // per-task laziness so the buffer's capacity carries across tasks.
    bool have_rc = false;

    AlignmentRecord best;
    best.rid_a = task.rid_a;
    best.rid_b = task.rid_b;
    bool have_best = false;

    // Chaining collapses the pair's seed list to the best chain's
    // representative anchor — one extension per pair. When no seed is
    // chainable (all corrupt) the per-seed loop below runs and skips them
    // the same way it always has.
    overlap::SeedPair chain_anchor;
    const overlap::SeedPair* seeds = task.seeds.data();
    std::size_t n_seeds = task.seeds.size();
    if (cfg.chain && n_seeds > 1) {
      ChainResult chain = chain_seeds(task.seeds, a.size(), b.size(), chain_params,
                                      &res.chain_dropped_seeds);
      if (chain.found) {
        chain_anchor = chain.anchor;
        seeds = &chain_anchor;
        n_seeds = 1;
        ++res.chain_anchors;
      }
    }

    for (std::size_t si = 0; si < n_seeds; ++si) {
      const overlap::SeedPair& seed = seeds[si];
      const int k = cfg.k;
      u64 pos_a = seed.pos_a;
      u64 pos_b;
      std::string_view bseq;
      if (seed.same_orientation) {
        bseq = b;
        pos_b = seed.pos_b;
      } else {
        if (!have_rc) {
          kmer::reverse_complement_into(b, ws.b_rc);
          have_rc = true;
          revcomp_bytes += b.size();
        }
        bseq = ws.b_rc;
        // A window at pos p in b's forward frame starts at len-k-p in the RC.
        pos_b = b.size() - static_cast<u64>(k) - seed.pos_b;
      }
      if (pos_a + static_cast<u64>(k) > a.size() ||
          pos_b + static_cast<u64>(k) > bseq.size()) {
        continue;  // defensive: corrupt seed
      }
      SeedAlignment sa =
          align_from_seed(a, bseq, pos_a, pos_b, k, cfg.scoring, cfg.xdrop, ws);
      ++res.alignments_computed;
      res.dp_cells += sa.cells;

      if (!have_best || sa.score > best.score) {
        have_best = true;
        best.score = sa.score;
        best.same_orientation = seed.same_orientation;
        best.a_begin = static_cast<u32>(sa.a_begin);
        best.a_end = static_cast<u32>(sa.a_end);
        if (seed.same_orientation) {
          best.b_begin = static_cast<u32>(sa.b_begin);
          best.b_end = static_cast<u32>(sa.b_end);
        } else {
          // Convert RC-frame span back to b's forward frame.
          best.b_begin = static_cast<u32>(b.size() - sa.b_end);
          best.b_end = static_cast<u32>(b.size() - sa.b_begin);
        }
      }
    }
    best.seeds_explored = static_cast<u32>(n_seeds);
    if (have_best && best.score >= cfg.min_score) {
      records.push_back(best);
      ++res.records_kept;
    }
  }
  extend_span.arg("pairs", res.pairs_aligned);
  extend_span.arg("cells", res.dp_cells);
  // Work-based compute accounting: DP cells dominate; reverse-complement
  // construction and read access are byte-copy-bounded. Exact per-rank unit
  // counts preserve the data-dependent load imbalance the paper studies.
  ctx.trace.add_work("align:compute",
                     {.dp_cells = res.dp_cells, .bytes_copied = revcomp_bytes + touched_bytes},
                     touched_bytes);

  if (result) *result = res;
  return records;
}

}  // namespace dibella::align
