#include "traced_job.hpp"

#include <exception>
#include <memory>
#include <sstream>

#include "align/alignment_stage.hpp"
#include "align/read_exchange.hpp"
#include "bloom/distributed_bloom.hpp"
#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "core/alignment_spill.hpp"
#include "core/output.hpp"
#include "core/stage_context.hpp"
#include "dht/distributed_table.hpp"
#include "dht/local_table.hpp"
#include "eval/report.hpp"
#include "io/read_block.hpp"
#include "io/read_store.hpp"
#include "overlap/overlapper.hpp"
#include "sgraph/string_graph.hpp"
#include "sgraph/unitig.hpp"
#include "util/radix_sort.hpp"

namespace perfbench {

namespace dc = dibella::core;
using dibella::align::AlignmentRecord;

namespace {

/// The pipeline's global record order: (rid_a, rid_b), unique per pair.
void sort_records(std::vector<AlignmentRecord>& records) {
  dibella::util::radix_sort_u64(records, [](const AlignmentRecord& r) { return r.rid_b; });
  dibella::util::radix_sort_u64(records, [](const AlignmentRecord& r) { return r.rid_a; });
}

/// Everything one rank produces, written only by that rank's thread.
struct RankSlot {
  dibella::netsim::RankTrace trace;
  dibella::obs::Registry metrics;
  dibella::obs::Registry wire_metrics;
  dibella::bloom::BloomStageResult bloom;
  dibella::overlap::OverlapStageResult overlap;
  dibella::align::AlignmentStageResult align;
  std::vector<AlignmentRecord> records;
  dibella::sgraph::StringGraphShard graph;
};

/// Stages 1-5 on one rank, mirroring core::run_pipeline's composition (no
/// checkpointing), with a span per layer call and a barrier after each.
void run_rank(dibella::comm::Communicator& comm, const Dataset& ds,
              const dc::PipelineConfig& config, const dibella::io::ReadPartition& partition,
              dc::AlignmentSpillSet* spill, RankSlot& slot, Lane& lane, u32 parent) {
  const u32 B = config.blocks;
  dc::StageContext ctx{comm, slot.trace, nullptr, &slot.metrics, &slot.wire_metrics};
  ctx.attach();
  const auto wait = [&](const char* name, u32 under) {
    comm.set_stage(kBenchStageTag);
    lane.timed(name, under, [&] { comm.barrier(); });
  };

  const u32 store_span = lane.open("io.store", parent);
  dibella::io::BlockConfig block_cfg;
  block_cfg.blocks = B;
  block_cfg.memory_budget_bytes = config.memory_budget_bytes;
  dibella::io::ReadStore store(ds.reads, partition, comm.rank(), block_cfg);
  store.attach_truth(ds.truth);
  lane.close(store_span);
  wait("io.store.wait", parent);

  const dibella::sketch::SketchConfig sketch{config.minimizer_w, config.syncmer};
  dibella::dht::LocalKmerTable table(1024, config.resolved_max_kmer_count() + 1);
  {
    dibella::bloom::BloomStageConfig bcfg;
    bcfg.k = config.k;
    bcfg.batch_kmers = config.batch_kmers;
    bcfg.bloom_fpr = config.bloom_fpr;
    bcfg.assumed_error_rate = config.assumed_error_rate;
    bcfg.sketch = sketch;
    bcfg.overlap_comm = config.overlap_comm;
    bcfg.exchange_chunk_bytes = config.exchange_chunk_bytes;
    lane.timed("bloom", parent,
               [&] { slot.bloom = dibella::bloom::run_bloom_stage(ctx, store, bcfg, table); });
    wait("bloom.wait", parent);
  }
  {
    dibella::dht::HashTableStageConfig hcfg;
    hcfg.k = config.k;
    hcfg.batch_instances = config.batch_kmers;
    hcfg.min_count = config.min_kmer_count;
    hcfg.max_count = config.resolved_max_kmer_count();
    hcfg.sketch = sketch;
    hcfg.overlap_comm = config.overlap_comm;
    hcfg.exchange_chunk_bytes = config.exchange_chunk_bytes;
    lane.timed("dht", parent, [&] { dibella::dht::run_hashtable_stage(ctx, store, hcfg, table); });
    wait("dht.wait", parent);
  }
  std::vector<dibella::overlap::AlignmentTask> tasks;
  {
    dibella::overlap::OverlapStageConfig ocfg;
    ocfg.seed_filter = config.seed_filter;
    ocfg.overlap_comm = config.overlap_comm;
    ocfg.batch_tasks = config.batch_overlap_tasks;
    ocfg.exchange_chunk_bytes = config.exchange_chunk_bytes;
    lane.timed("overlap", parent, [&] {
      tasks = dibella::overlap::run_overlap_stage(ctx, table, partition, ocfg, &slot.overlap);
    });
    wait("overlap.wait", parent);
  }

  dibella::align::ReadExchangeConfig rcfg;
  rcfg.overlap_comm = config.overlap_comm;
  rcfg.exchange_chunk_bytes = config.exchange_chunk_bytes;
  dibella::align::AlignmentStageConfig acfg;
  acfg.scoring = config.scoring;
  acfg.xdrop = config.xdrop;
  acfg.k = config.k;
  acfg.min_score = config.min_report_score;
  acfg.chain = config.chain;
  // One read-exchange + alignment round (in-memory), or one per block with
  // each round's sorted records spilled (out-of-core), as run_pipeline does.
  const auto align_round = [&](const std::vector<dibella::overlap::AlignmentTask>& round,
                               u32 under, dibella::align::AlignmentStageResult& res) {
    lane.timed("align.read_exchange", under,
               [&] { dibella::align::run_read_exchange(ctx, store, round, rcfg); });
    wait("align.read_exchange.wait", under);
    std::vector<AlignmentRecord> recs;
    lane.timed("align.extend", under, [&] {
      recs = dibella::align::run_alignment_stage(ctx, store, round, acfg, &res);
    });
    wait("align.wait", under);
    return recs;
  };
  if (B == 1) {
    slot.records = align_round(tasks, parent, slot.align);
  } else {
    const u32 rounds_span = lane.open("align.rounds", parent);
    std::vector<std::vector<dibella::overlap::AlignmentTask>> rounds(B);
    for (auto& t : tasks) {
      const u64 round_gid = !store.is_local(t.rid_a) ? t.rid_a : t.rid_b;
      rounds[dibella::io::block_of(partition, B, round_gid)].push_back(std::move(t));
    }
    tasks.clear();
    tasks.shrink_to_fit();
    for (u32 r = 0; r < B; ++r) {
      dibella::align::AlignmentStageResult res;
      std::vector<AlignmentRecord> recs = align_round(rounds[r], rounds_span, res);
      slot.align.dp_cells += res.dp_cells;
      slot.align.records_kept += res.records_kept;
      lane.timed("core.spill_write", rounds_span, [&] {
        sort_records(recs);
        spill->add_run(comm.rank(), recs);
      });
      store.clear_remote_cache();
      rounds[r].clear();
      rounds[r].shrink_to_fit();
    }
    lane.close(rounds_span);
  }

  dibella::sgraph::StringGraphConfig scfg;
  scfg.min_overlap_score = config.min_overlap_score;
  scfg.fuzz = config.sgraph_fuzz;
  scfg.overlap_comm = config.overlap_comm;
  scfg.batch_bytes = config.batch_graph_bytes;
  scfg.exchange_chunk_bytes = config.exchange_chunk_bytes;
  lane.timed("sgraph", parent, [&] {
    if (spill == nullptr) {
      slot.graph = dibella::sgraph::run_string_graph_stage(ctx, store, slot.records, scfg);
    } else {
      dc::SpillMergeSource local_stream(spill->rank_runs(comm.rank()));
      slot.graph = dibella::sgraph::run_string_graph_stage(ctx, store, local_stream, scfg);
    }
  });
  wait("sgraph.wait", parent);
}

}  // namespace

TracedJobResult run_traced_job(const Dataset& ds, const dc::PipelineConfig& config) {
  TracedJobResult out;
  JobSpans spans(kRanks);
  Lane& merge_lane = spans.main();
  const u32 job_span = merge_lane.open("job", 0);
  try {
    dibella::comm::World world(kRanks);
    std::vector<u64> lens;
    lens.reserve(ds.reads.size());
    for (const auto& r : ds.reads) lens.push_back(r.seq.size());
    const dibella::io::ReadPartition partition(lens, kRanks);
    std::unique_ptr<dc::AlignmentSpillSet> spill;
    if (config.blocks > 1) spill = std::make_unique<dc::AlignmentSpillSet>(config.spill_dir);

    std::vector<RankSlot> slots(kRanks);
    const u32 run_span = merge_lane.open("world.run", job_span);
    world.run([&](dibella::comm::Communicator& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      run_rank(comm, ds, config, partition, spill.get(), slots[rank], spans.lane(comm.rank()),
               run_span);
    });
    merge_lane.close(run_span);
    out.exchange_log = world.exchange_records();

    dibella::sgraph::StringGraphOutput graph;
    merge_lane.timed("sgraph.finalize", job_span, [&] {
      std::vector<dibella::sgraph::StringGraphShard> shards;
      for (RankSlot& s : slots) shards.push_back(std::move(s.graph));
      graph = dibella::sgraph::finalize_string_graph(std::move(shards));
    });
    std::vector<AlignmentRecord> merged;
    merge_lane.timed("core.merge", job_span, [&] {
      if (spill) return;  // block mode merges while streaming
      std::size_t total = 0;
      for (const RankSlot& s : slots) total += s.records.size();
      merged.reserve(total);
      for (RankSlot& s : slots) merged.insert(merged.end(), s.records.begin(), s.records.end());
      sort_records(merged);
    });
    const auto record_source = [&]() -> std::unique_ptr<dibella::align::RecordSource> {
      if (spill) return std::make_unique<dc::SpillMergeSource>(spill->all_runs());
      return std::make_unique<dibella::align::VectorRecordSource>(merged);
    };
    merge_lane.timed("eval.evaluate", job_span, [&] {
      dibella::eval::EvalConfig ecfg;
      ecfg.min_true_overlap = config.eval_min_overlap;
      ecfg.len_bin = config.eval_len_bin;
      auto source = record_source();
      out.job.eval = dibella::eval::evaluate(*ds.truth, *source, &graph.layout, ecfg);
    });
    std::ostringstream paf;
    merge_lane.timed("core.write_paf", job_span, [&] {
      auto source = record_source();
      dc::write_paf(paf, *source, ds.reads, config.sgraph_fuzz);
    });
    std::ostringstream gfa;
    merge_lane.timed("sgraph.write_gfa", job_span,
               [&] { dibella::sgraph::write_gfa(gfa, graph.surviving_edges, ds.reads); });
    const std::string paf_text = paf.str();
    out.job.digest = output_digest(paf_text, gfa.str());
    out.job.paf_bytes = paf_text.size();
    for (const RankSlot& s : slots) {
      out.counts.kmers_parsed += s.bloom.parsed_instances;
      out.counts.overlap_tasks += s.overlap.pair_tasks_formed;
      out.counts.dp_cells += s.align.dp_cells;
      out.counts.alignments_reported += s.align.records_kept;
    }
    out.job.ok = true;
  } catch (const std::exception& e) {
    out.job.error = e.what();
  }
  merge_lane.close(job_span);
  out.job.wall_s = merge_lane.spans().front().seconds();
  out.spans = spans.all();
  return out;
}

}  // namespace perfbench
