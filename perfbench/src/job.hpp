#pragma once
/// \file job.hpp
/// Workloads, seeded inputs and one complete untraced diBELLA job: the
/// pipeline (stages 1-5, record merge, eval) followed by PAF and GFA
/// serialization into memory, exactly what the `dibella` driver runs for a
/// simulated preset.

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "eval/report.hpp"
#include "io/read.hpp"
#include "io/truth.hpp"

namespace perfbench {

using dibella::u32;
using dibella::u64;

/// Ranks of every job (one comm::World of threads).
inline constexpr int kRanks = 4;
/// simgen::ecoli30x_like scale: 276 reads over a 92.8 kbp genome at the
/// paper's 9,958 bp mean read length.
inline constexpr double kScale = 0.02;

struct Workload {
  const char* name;
  u32 minimizer_w;  ///< 0 = dense (every k-mer)
  u32 blocks;       ///< > 1 = out-of-core block pipeline
  u64 memory_budget_bytes;
};

/// The benchmark's workloads; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// A generated read set with its ground truth.
struct Dataset {
  std::vector<dibella::io::Read> reads;
  std::shared_ptr<const dibella::io::TruthTable> truth;
  u64 genome_length = 0;
  u64 min_true_overlap = 0;
  double coverage = 0.0;
  double error_rate = 0.0;
};

/// Generate dataset `index` of workload seed `seed`: the genome and read
/// seeds are derived from both, so the same arguments give the same reads.
Dataset make_dataset(u64 seed, u32 index);

/// simgen's fixed tiny test dataset (the first-use probe of set-up).
Dataset make_tiny_dataset();

/// The `dibella` driver's preset configuration for `w` on `ds`, with stage
/// 5 and eval on. Spill runs (block mode) go under `spill_dir`.
dibella::core::PipelineConfig make_config(const Workload& w, const Dataset& ds,
                                          const std::string& spill_dir);

/// Mapped genome span of each unitig, scored by eval::score_unitigs one
/// unitig at a time (so the spans are exactly the ones its N50 uses).
std::vector<u64> unitig_spans(const Dataset& ds,
                              const std::vector<dibella::sgraph::Unitig>& unitigs);

/// FNV-1a 64 over the PAF text, a separator, then the GFA text.
u64 output_digest(const std::string& paf, const std::string& gfa);

/// What one job yields. `ok` is false if the job threw.
struct JobResult {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  u64 digest = 0;
  u64 paf_bytes = 0;
  dibella::eval::EvalReport eval;
  dibella::core::PipelineCounters counters;
  std::vector<dibella::sgraph::Unitig> unitigs;  ///< the stage-5 layout
};

/// Run one untraced job: a fresh World, core::run_pipeline, then write_paf
/// and write_gfa into memory. `corrupt_output` flips one PAF byte before the
/// digest (the gate's self-test).
JobResult run_job(const Dataset& ds, const dibella::core::PipelineConfig& cfg,
                  bool corrupt_output);

}  // namespace perfbench
