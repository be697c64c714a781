// Wall-clock kernel benchmark: times the alignment/overlap hot-path kernels
// against the retained reference implementations (align::ref and the former
// map-based consolidation) on simulated preset-like workloads, and writes
// the perf-trajectory file BENCH_kernels.json.
//
// Unlike the bench_fig* binaries (virtual cost-model seconds), this measures
// REAL wall-clock time of:
//   * xdrop:        seed-anchored x-drop extension over ~10 kb noisy pairs
//                   anchored on a true shared k-mer, plus divergent pairs
//                   (ns/cell, pairs/s)
//   * consolidate:  overlap-stage wire-task consolidation, sort-then-group vs
//                   the node-based std::map (tasks/s)
//   * radix_consolidate: the consolidation's sort itself — the hybrid
//                   overlap::sort_wire_tasks (packed-key radix passes with a
//                   size/key-width comparison cutover) vs the former 5-tuple
//                   comparison std::sort (tasks/s)
//   * minimizer_sketch: whole-pipeline wall seconds, dense seeding
//                   (baseline) vs w=10 window minimizers (optimized) — the
//                   sketch layer's end-to-end payoff from cutting stage 1-3
//                   exchange volume and stage-4 task count; recall parity on
//                   the >= min_true_overlap truth set is asserted instead of
//                   output identity (the sampled pipeline reports fewer
//                   sub-threshold pairs by design)
//   * seed_chaining: whole-pipeline wall seconds under the all-seeds policy,
//                   extending every surviving seed (baseline) vs colinear
//                   chaining to one anchor per pair (optimized); the pair
//                   universe is asserted identical
//   * exchange_overlap: whole-pipeline exposed exchange seconds (modeled
//                   Cori), bulk-synchronous loops (baseline) vs the
//                   nonblocking batched Exchanger (optimized) — virtual
//                   cost-model time, deterministic by construction (see
//                   bench_exchange_overlap for the per-stage breakdown)
//   * sgraph_reduction: stage-5 string-graph transitive reduction,
//                   sequential graph::OverlapGraph oracle (baseline) vs the
//                   distributed sgraph stage over a 4-rank World
//                   (optimized); `cells` carries the edges removed and
//                   `items` the dovetail edges entering reduction (see
//                   bench_sgraph_reduction for the workload sweep)
//
// usage: bench_kernel_wallclock [--smoke] [--reps=N] [--out=PATH]
//   --smoke   tiny workload + fewer reps (CI-sized; shape, not significance)
//   --reps=N  timing repetitions per kernel, best-of-N (default 5; smoke 2)
//   --out     output JSON path (default BENCH_kernels.json)
//
// Every (baseline, optimized) pair is checksum-verified to produce identical
// results before the numbers are reported.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "align/reference_kernels.hpp"
#include "align/xdrop.hpp"
#include "common/bench_common.hpp"
#include "common/exchange_overlap.hpp"
#include "common/sgraph_workload.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "kmer/dna.hpp"
#include "overlap/overlapper.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"
#include "util/radix_sort.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace dibella;

std::string random_dna(util::Xoshiro256& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

/// `s` with substitutions, insertions and deletions at `rate`. When `pos` is
/// given, (*pos)[k] is the output index of s[k], or -1 where s[k] was
/// substituted or deleted: the read's coordinate map onto its source.
std::string mutate(const std::string& s, double rate, util::Xoshiro256& rng,
                   std::vector<i64>* pos = nullptr) {
  std::string out;
  out.reserve(s.size() + s.size() / 4);
  if (pos) pos->assign(s.size(), -1);
  for (std::size_t k = 0; k < s.size(); ++k) {
    const char c = s[k];
    if (rng.bernoulli(rate)) {
      double roll = rng.uniform();
      if (roll < 0.4) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
      } else if (roll < 0.7) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
        if (pos) (*pos)[k] = static_cast<i64>(out.size());
        out.push_back(c);
      }  // else deletion
    } else {
      if (pos) (*pos)[k] = static_cast<i64>(out.size());
      out.push_back(c);
    }
  }
  return out;
}

/// Best-of-N wall time of fn() (first call also warms caches/buffers).
template <class Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

struct BenchRow {
  std::string name;
  std::string unit;        // throughput unit, e.g. "pairs/s"
  double baseline_s = 0;   // best-of-reps wall seconds, reference kernel
  double optimized_s = 0;  // best-of-reps wall seconds, hot-path kernel
  double baseline_ns_per_cell = 0;  // 0 when cells don't apply
  double optimized_ns_per_cell = 0;
  double throughput = 0;  // optimized items/s
  u64 items = 0;
  u64 cells = 0;  // DP cells per pass (0 for consolidate)
  double speedup() const { return baseline_s > 0 ? baseline_s / optimized_s : 0; }
};

// --- workload: seed-anchored long-read pairs ---------------------------------

struct SeedTask {
  std::string a, b;
  u64 pos_a = 0, pos_b = 0;
};

/// PacBio-like pairs shaped like the pipeline's stage-4 traffic: ~10 kb
/// reads (the E. coli presets' mean read length) at ~15% per-read error.
/// Three in four are true overlaps (the second half of a is the first half
/// of b) anchored on a k-mer that both reads copy verbatim from the genome,
/// so the extension runs along the true diagonal as a chained seed does;
/// one in four is a divergent (false-seed) pair that exercises the
/// early-termination path (§9's load-imbalance source).
std::vector<SeedTask> make_seed_tasks(std::size_t n_pairs, std::size_t read_len, int k,
                                      util::Xoshiro256& rng) {
  std::vector<SeedTask> tasks;
  tasks.reserve(n_pairs);
  const std::size_t shift = read_len / 2;
  while (tasks.size() < n_pairs) {
    SeedTask t;
    if (tasks.size() % 4 == 3) {
      t.a = random_dna(rng, read_len);
      t.b = random_dna(rng, read_len);
      t.pos_a = read_len / 2;
      t.pos_b = read_len / 2;
      tasks.push_back(std::move(t));
      continue;
    }
    std::string genome = random_dna(rng, read_len + shift);
    std::vector<i64> map_a, map_b;
    t.a = mutate(genome.substr(0, read_len), 0.15, rng, &map_a);
    t.b = mutate(genome.substr(shift, read_len), 0.15, rng, &map_b);
    // First genome k-mer from the middle of the shared span [shift,
    // read_len) that both reads kept unbroken.
    auto kept = [k](const std::vector<i64>& map, std::size_t g) {
      for (int d = 0; d < k; ++d) {
        if (map[g + d] < 0 || map[g + d] != map[g] + d) return false;
      }
      return true;
    };
    for (std::size_t g = shift + shift / 2; g + k <= read_len; ++g) {
      if (kept(map_a, g) && kept(map_b, g - shift)) {
        t.pos_a = static_cast<u64>(map_a[g]);
        t.pos_b = static_cast<u64>(map_b[g - shift]);
        tasks.push_back(std::move(t));
        break;
      }
    }  // no shared k-mer survived: draw another pair
  }
  return tasks;
}

BenchRow bench_xdrop(std::size_t n_pairs, std::size_t read_len, int reps,
                     util::Xoshiro256& rng) {
  const int k = 17, xdrop = 25;
  const align::Scoring sc;
  auto tasks = make_seed_tasks(n_pairs, read_len, k, rng);

  u64 sum_ref = 0, cells_ref = 0;
  BenchRow row;
  row.name = "xdrop_extend";
  row.unit = "pairs/s";
  row.items = tasks.size();
  row.baseline_s = best_of(reps, [&] {
    sum_ref = cells_ref = 0;
    for (const auto& t : tasks) {
      auto sa = align::ref::align_from_seed(t.a, t.b, t.pos_a, t.pos_b, k, sc, xdrop);
      sum_ref += static_cast<u64>(sa.score) + sa.a_end + sa.b_end;
      cells_ref += sa.cells;
    }
  });

  align::Workspace ws;
  u64 sum_opt = 0, cells_opt = 0;
  row.optimized_s = best_of(reps, [&] {
    sum_opt = cells_opt = 0;
    for (const auto& t : tasks) {
      auto sa = align::align_from_seed(t.a, t.b, t.pos_a, t.pos_b, k, sc, xdrop, ws);
      sum_opt += static_cast<u64>(sa.score) + sa.a_end + sa.b_end;
      cells_opt += sa.cells;
    }
  });
  DIBELLA_CHECK(sum_ref == sum_opt && cells_ref == cells_opt,
                "xdrop optimized kernel diverged from reference");
  row.cells = cells_opt;
  row.baseline_ns_per_cell = 1e9 * row.baseline_s / static_cast<double>(cells_opt);
  row.optimized_ns_per_cell = 1e9 * row.optimized_s / static_cast<double>(cells_opt);
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_consolidate(std::size_t n_tasks, std::size_t n_reads, int reps,
                           util::Xoshiro256& rng) {
  // Wire-task mix shaped like a real overlap stage: many pairs with a
  // handful of shared seeds each.
  std::vector<overlap::OverlapTaskWire> wire;
  wire.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    overlap::OverlapTaskWire t;
    t.rid_a = rng.uniform_below(n_reads);
    t.rid_b = rng.uniform_below(n_reads);
    if (t.rid_a == t.rid_b) t.rid_b = (t.rid_a + 1) % n_reads;
    t.pos_a = static_cast<u32>(rng.uniform_below(20'000));
    t.pos_b = static_cast<u32>(rng.uniform_below(20'000));
    t.same_orientation = rng.bernoulli(0.7) ? 1 : 0;
    wire.push_back(t);
  }
  const auto policy = overlap::SeedFilterConfig::all_seeds(17);

  BenchRow row;
  row.name = "overlap_consolidate";
  row.unit = "tasks/s";
  row.items = wire.size();
  // Baseline: the former node-based std::map consolidation, verbatim.
  u64 sum_ref = 0;
  row.baseline_s = best_of(reps, [&] {
    sum_ref = 0;
    std::map<std::pair<u64, u64>, std::vector<overlap::SeedPair>> pairs;
    for (const auto& t : wire) {
      u64 a = t.rid_a, b = t.rid_b;
      u32 pa = t.pos_a, pb = t.pos_b;
      if (a > b) {
        std::swap(a, b);
        std::swap(pa, pb);
      }
      pairs[{a, b}].push_back(overlap::SeedPair{pa, pb, t.same_orientation});
    }
    for (auto& [key, seeds] : pairs) {
      auto filtered = overlap::filter_seeds(std::move(seeds), policy);
      sum_ref += key.first + filtered.size();
    }
  });
  u64 sum_opt = 0;
  row.optimized_s = best_of(reps, [&] {
    sum_opt = 0;
    auto tasks = overlap::consolidate_tasks(wire, policy);
    for (const auto& t : tasks) sum_opt += t.rid_a + t.seeds.size();
  });
  DIBELLA_CHECK(sum_ref == sum_opt,
                "sort-based consolidation diverged from the map-based baseline");
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_radix_consolidate(std::size_t n_tasks, std::size_t n_reads, int reps,
                                 util::Xoshiro256& rng) {
  // The sort inside consolidate_tasks, isolated: canonicalized wire tasks
  // ordered by the 5-tuple (rid_a, rid_b, pos_a, pos_b, same_orientation).
  // baseline = the former comparison std::sort; optimized = the hybrid
  // overlap::sort_wire_tasks the overlap stage now runs (packed two-key
  // radix with a size/key-width cutover to a packed-key comparison sort).
  std::vector<overlap::OverlapTaskWire> wire;
  wire.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    overlap::OverlapTaskWire t;
    t.rid_a = rng.uniform_below(n_reads);
    t.rid_b = rng.uniform_below(n_reads);
    if (t.rid_a == t.rid_b) t.rid_b = (t.rid_a + 1) % n_reads;
    t.pos_a = static_cast<u32>(rng.uniform_below(20'000));
    t.pos_b = static_cast<u32>(rng.uniform_below(20'000));
    t.same_orientation = rng.bernoulli(0.7) ? 1 : 0;
    if (t.rid_a > t.rid_b) {
      std::swap(t.rid_a, t.rid_b);
      std::swap(t.pos_a, t.pos_b);
    }
    wire.push_back(t);
  }
  auto order_hash = [](const std::vector<overlap::OverlapTaskWire>& v) {
    u64 h = 0;
    for (const auto& t : v) {
      h = h * 1099511628211ull + t.rid_a;
      h = h * 1099511628211ull + t.rid_b;
      h = h * 1099511628211ull + t.pos_a;
      h = h * 1099511628211ull + t.pos_b;
      h = h * 1099511628211ull + t.same_orientation;
    }
    return h;
  };

  BenchRow row;
  row.name = "radix_consolidate";
  row.unit = "tasks/s";
  row.items = wire.size();
  u64 hash_ref = 0, hash_opt = 0;
  row.baseline_s = best_of(reps, [&] {
    auto v = wire;
    std::sort(v.begin(), v.end(),
              [](const overlap::OverlapTaskWire& x, const overlap::OverlapTaskWire& y) {
                if (x.rid_a != y.rid_a) return x.rid_a < y.rid_a;
                if (x.rid_b != y.rid_b) return x.rid_b < y.rid_b;
                if (x.pos_a != y.pos_a) return x.pos_a < y.pos_a;
                if (x.pos_b != y.pos_b) return x.pos_b < y.pos_b;
                return x.same_orientation < y.same_orientation;
              });
    hash_ref = order_hash(v);
  });
  row.optimized_s = best_of(reps, [&] {
    auto v = wire;
    overlap::sort_wire_tasks(v);
    hash_opt = order_hash(v);
  });
  DIBELLA_CHECK(hash_ref == hash_opt,
                "radix consolidation order diverged from the comparison sort");
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_minimizer_sketch(bool smoke, int reps) {
  // End-to-end pipeline wall seconds on a 4-rank World: dense seeding vs
  // w=10 window minimizers on the same reads. The two runs report different
  // (nested) pair sets by design, so instead of output identity this asserts
  // a quality floor: bounded recall loss, no aggregate F1 regression (the
  // sketch prunes spurious short overlaps, so precision rises), and real
  // sampling (< 1/3 the seeds). The tighter <= 1-point recall bar at the
  // default density is pinned by the eval tier on the preset profile the
  // default applies to (tests/test_property_sweeps.cpp); this workload's
  // 15% error rate sheds more of the threshold-straddling tail.
  auto preset = smoke ? simgen::tiny_test(42) : simgen::ecoli30x_like(0.02);
  auto sim = simgen::make_dataset(preset);
  auto truth =
      std::make_shared<const io::TruthTable>(simgen::truth_table(sim));
  core::PipelineConfig cfg;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  cfg.eval = true;
  // Recall parity is judged on the standard >= 2000-base overlap definition
  // (PipelineConfig's default): pairs sharing that much sequence keep a
  // sampled seed; the tiny preset's scaled 500-base threshold would count a
  // sub-threshold tail the sketch thins by design.

  BenchRow row;
  row.name = "minimizer_sketch";
  row.unit = "reads/s";
  row.items = sim.reads.size();
  core::PipelineOutput dense, sketched;
  row.baseline_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.minimizer_w = 0;
    dense = core::run_pipeline(world, sim.reads, c, truth);
  });
  row.optimized_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.minimizer_w = 10;
    sketched = core::run_pipeline(world, sim.reads, c, truth);
  });
  DIBELLA_CHECK(sketched.counters.sketch_seeds_kept * 3 <
                    dense.counters.sketch_seeds_kept,
                "minimizer sketch kept too many seeds (not sampling)");
  DIBELLA_CHECK(sketched.eval.overlap.recall() >=
                    dense.eval.overlap.recall() - 0.08,
                "minimizer sketch lost too much recall");
  DIBELLA_CHECK(sketched.eval.overlap.f1() >= dense.eval.overlap.f1(),
                "minimizer sketch regressed aggregate F1");
  row.cells = sketched.counters.sketch_seeds_kept;
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_seed_chaining(bool smoke, int reps) {
  // Stage 4 under the all-seeds policy (the paper's high-intensity setting):
  // baseline extends every surviving seed of every pair; optimized chains
  // each pair's seeds and extends one representative anchor. Same pair
  // universe either way — only the extension count drops.
  auto preset = smoke ? simgen::tiny_test(42) : simgen::ecoli30x_like(0.02);
  auto sim = simgen::make_dataset(preset);
  core::PipelineConfig cfg;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  cfg.seed_filter = overlap::SeedFilterConfig::all_seeds(cfg.k);
  cfg.minimizer_w = 10;  // the preset-default sketched workload shape

  BenchRow row;
  row.name = "seed_chaining";
  row.unit = "pairs/s";
  core::PipelineOutput every_seed, chained;
  row.baseline_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.chain = false;
    every_seed = core::run_pipeline(world, sim.reads, c);
  });
  row.optimized_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.chain = true;
    chained = core::run_pipeline(world, sim.reads, c);
  });
  DIBELLA_CHECK(chained.counters.pairs_aligned == every_seed.counters.pairs_aligned,
                "chaining changed the aligned-pair universe");
  DIBELLA_CHECK(
      chained.counters.alignments_computed * 3 <=
          every_seed.counters.alignments_computed * 2,
      "chaining cut fewer than 1.5x of the seed extensions");
  row.items = chained.counters.pairs_aligned;
  row.cells = every_seed.counters.alignments_computed;  // extensions avoided from
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_exchange_overlap(bool smoke) {
  // Exposed-exchange seconds are deterministic virtual time; best-of-reps
  // doesn't apply. baseline = bulk-synchronous, optimized = overlapped.
  auto r = smoke ? benchx::measure_exchange_overlap(0.02, 4, 2, 1 << 15)
                 : benchx::measure_exchange_overlap(0.1, 8, 4, 1 << 18);
  BenchRow row;
  row.name = "exchange_overlap";
  row.unit = "exchanges/s";
  row.items = r.batches_on;
  row.baseline_s = r.exposed_off();
  row.optimized_s = r.exposed_on();
  row.throughput = row.optimized_s > 0 ? static_cast<double>(row.items) / row.optimized_s
                                       : 0.0;
  return row;
}

BenchRow bench_sgraph(bool smoke, int reps) {
  // Both paths are cross-checked against each other inside the measurement.
  // ~30x coverage layout (the paper's E. coli 30x shape).
  std::size_t n_reads = smoke ? 600 : 6'000;
  auto w = benchx::make_sgraph_workload(n_reads, n_reads * 200, 6'000, 500,
                                        /*seed=*/0x5647);
  sgraph::StringGraphConfig cfg;
  auto r = benchx::measure_sgraph_reduction(w, /*ranks=*/4, reps, cfg);
  BenchRow row;
  row.name = "sgraph_reduction";
  row.unit = "edges/s";
  row.items = r.edges_in;
  row.cells = r.edges_removed;  // for this entry: edges removed, not DP cells
  row.baseline_s = r.sequential_s;
  row.optimized_s = r.distributed_s;
  row.throughput =
      r.distributed_s > 0 ? static_cast<double>(r.edges_in) / r.distributed_s : 0.0;
  return row;
}

// --- output ------------------------------------------------------------------

std::string json_escapeless(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void write_json(const std::string& path, const std::vector<BenchRow>& rows,
                bool smoke, int reps) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"dibella-kernel-wallclock-v1\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "    {\n";
    os << "      \"name\": \"" << r.name << "\",\n";
    os << "      \"items\": " << r.items << ",\n";
    os << "      \"cells\": " << r.cells << ",\n";
    os << "      \"baseline_s\": " << json_escapeless(r.baseline_s) << ",\n";
    os << "      \"optimized_s\": " << json_escapeless(r.optimized_s) << ",\n";
    os << "      \"baseline_ns_per_cell\": " << json_escapeless(r.baseline_ns_per_cell)
       << ",\n";
    os << "      \"optimized_ns_per_cell\": " << json_escapeless(r.optimized_ns_per_cell)
       << ",\n";
    os << "      \"throughput\": " << json_escapeless(r.throughput) << ",\n";
    os << "      \"throughput_unit\": \"" << r.unit << "\",\n";
    os << "      \"speedup\": " << json_escapeless(r.speedup()) << "\n";
    os << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  std::ofstream f(path, std::ios::trunc);
  DIBELLA_CHECK(static_cast<bool>(f), "cannot open " + path + " for writing");
  f << os.str();
  DIBELLA_CHECK(static_cast<bool>(f.flush()), "write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const int reps = static_cast<int>(args.get_i64("reps", smoke ? 2 : 5));
  const std::string out_path = args.get("out", "BENCH_kernels.json");

  benchx::print_header(
      "kernels", "wall-clock hot-path kernels vs retained reference implementations");

  util::Xoshiro256 rng(20260730);
  std::vector<BenchRow> rows;
  if (smoke) {
    rows.push_back(bench_xdrop(60, 1200, reps, rng));
    rows.push_back(bench_consolidate(60'000, 4'000, reps, rng));
    rows.push_back(bench_radix_consolidate(60'000, 4'000, reps, rng));
  } else {
    rows.push_back(bench_xdrop(200, 10'000, reps, rng));
    rows.push_back(bench_consolidate(2'000'000, 60'000, reps, rng));
    rows.push_back(bench_radix_consolidate(2'000'000, 60'000, reps, rng));
  }
  rows.push_back(bench_minimizer_sketch(smoke, reps));
  rows.push_back(bench_seed_chaining(smoke, reps));
  rows.push_back(bench_exchange_overlap(smoke));
  rows.push_back(bench_sgraph(smoke, reps));

  util::Table t({"kernel", "baseline (s)", "optimized (s)", "speedup", "ns/cell",
                 "throughput"});
  for (const auto& r : rows) {
    t.start_row();
    t.cell(r.name);
    t.cell(r.baseline_s, 4);
    t.cell(r.optimized_s, 4);
    t.cell(r.speedup(), 2);
    t.cell(r.optimized_ns_per_cell, 2);
    t.cell(util::format_si(r.throughput) + " " + r.unit);
  }
  std::cout << t.to_text("kernel wall-clock (best of " + std::to_string(reps) +
                         (smoke ? ", smoke workload)" : ")"));

  write_json(out_path, rows, smoke, reps);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
