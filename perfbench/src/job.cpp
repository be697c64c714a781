#include "job.hpp"

#include <exception>
#include <sstream>

#include "comm/world.hpp"
#include "core/output.hpp"
#include "eval/overlap_truth.hpp"
#include "eval/unitig_fidelity.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"
#include "simgen/read_sim.hpp"
#include "spans.hpp"

namespace perfbench {

namespace dc = dibella::core;

namespace {

constexpr Workload kWorkloads[] = {
    {"ecoli30x", 10, 1, 0},
    {"ecoli30x-dense", 0, 1, 0},
    {"ecoli30x-blocks", 10, 4, 256 * 1024},
};

u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

u64 fnv1a(u64 h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

Dataset dataset_from(const dibella::simgen::DatasetPreset& preset) {
  auto sim = dibella::simgen::make_dataset(preset);
  Dataset ds;
  ds.truth = std::make_shared<const dibella::io::TruthTable>(dibella::simgen::truth_table(sim));
  ds.reads = std::move(sim.reads);
  ds.genome_length = preset.genome.length;
  ds.min_true_overlap = preset.min_true_overlap;
  ds.coverage = preset.reads.coverage;
  ds.error_rate = preset.reads.error_rate;
  return ds;
}

}  // namespace

Dataset make_dataset(u64 seed, u32 index) {
  dibella::simgen::DatasetPreset preset = dibella::simgen::ecoli30x_like(kScale);
  const u64 base = splitmix64(seed ^ (u64{index} << 32));
  preset.genome.seed = splitmix64(base ^ 0x6E6F6D65ull);  // "genome"
  preset.reads.seed = splitmix64(base ^ 0x72656164ull);   // "reads"
  return dataset_from(preset);
}

Dataset make_tiny_dataset() { return dataset_from(dibella::simgen::tiny_test()); }

dc::PipelineConfig make_config(const Workload& w, const Dataset& ds,
                               const std::string& spill_dir) {
  dc::PipelineConfig cfg;  // k = 17, one seed per pair, x-drop 25, chaining
  cfg.assumed_coverage = ds.coverage;
  cfg.assumed_error_rate = ds.error_rate;
  cfg.minimizer_w = w.minimizer_w;
  cfg.overlap_comm = true;
  cfg.blocks = w.blocks;
  cfg.memory_budget_bytes = w.memory_budget_bytes;
  cfg.spill_dir = spill_dir;
  cfg.stage5 = true;
  cfg.eval = true;
  cfg.eval_min_overlap = ds.min_true_overlap;
  return cfg;
}

std::vector<u64> unitig_spans(const Dataset& ds,
                              const std::vector<dibella::sgraph::Unitig>& unitigs) {
  const dibella::eval::OverlapTruth oracle(*ds.truth, ds.min_true_overlap);
  std::vector<u64> spans;
  for (const auto& u : unitigs) {
    if (u.reads.empty()) continue;
    spans.push_back(dibella::eval::score_unitigs({u}, *ds.truth, oracle).unitig_n50);
  }
  return spans;
}

u64 output_digest(const std::string& paf, const std::string& gfa) {
  u64 h = 0xCBF29CE484222325ull;
  h = fnv1a(h, paf);
  h = fnv1a(h, std::string(1, '\0'));
  return fnv1a(h, gfa);
}

JobResult run_job(const Dataset& ds, const dc::PipelineConfig& cfg, bool corrupt_output) {
  JobResult r;
  const i64 t0 = now_ns();
  try {
    dibella::comm::World world(kRanks);
    const dc::PipelineOutput out = dc::run_pipeline(world, ds.reads, cfg, ds.truth);
    std::ostringstream paf;
    {
      auto source = out.alignment_source();
      dc::write_paf(paf, *source, ds.reads, cfg.sgraph_fuzz);
    }
    std::ostringstream gfa;
    dibella::sgraph::write_gfa(gfa, out.string_graph.surviving_edges, ds.reads);
    std::string paf_text = paf.str();
    if (corrupt_output && !paf_text.empty()) paf_text[paf_text.size() / 2] ^= 1;
    r.digest = output_digest(paf_text, gfa.str());
    r.paf_bytes = paf_text.size();
    r.eval = out.eval;
    r.counters = out.counters;
    r.unitigs = out.string_graph.layout.unitigs;
    r.ok = out.eval_ran;
    if (!r.ok) r.error = "eval did not run";
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return r;
}

}  // namespace perfbench
