/// \file main.cpp
/// perfbench_job: the end-to-end diBELLA job benchmark (see ../README.md).
///
///   perfbench_job --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///                 [--work-dir DIR] [--corrupt-job I]
///
/// One process runs one workload. It derives its datasets from --seed, sets
/// up (one dataset's generation + the run path's first-use cost), runs one
/// warm-up job, then runs complete jobs in whole rounds over the datasets
/// until --seconds have passed and gates every job's PAF+GFA digest against
/// the workload's first job on the same dataset. Only the dataset being run
/// is in memory: each is regenerated from the seed just before its jobs.
/// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
/// jobs with traced jobs (traced_job.hpp) and prints the per-layer metrics.
/// The last stdout line is one JSON object {correct, attempted, failed,
/// metrics}.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "job.hpp"
#include "spans.hpp"
#include "traced_job.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

/// Workload seed used when --seed is absent.
constexpr u64 kDefaultSeed = 1;
/// Generations of dataset 0 timed in set-up (setup_s uses their median).
constexpr int kSetupGenerations = 3;
/// Warm runs of the tiny first-use job after its cold run.
constexpr int kWarmTinyJobs = 3;
/// Datasets per run: each run covers this many seed-derived read sets, so
/// its numbers describe the workload rather than one draw of the simulator.
constexpr u32 kDatasets = 8;

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_work";
  long corrupt_job = -1;  ///< flip one output byte of this job (gate self-test)
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench_job: " << msg
            << "\nusage: perfbench_job --workload ecoli30x|ecoli30x-dense|ecoli30x-blocks"
               " [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] [--corrupt-job I]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        o.trace = std::stoi(val);
      } else if (key == "--work-dir") {
        o.work_dir = val;
      } else if (key == "--corrupt-job") {
        o.corrupt_job = std::stol(val);
      } else {
        usage_error("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + key + ": " + val);
    }
  }
  if (find_workload(o.workload) == nullptr) usage_error("unknown --workload '" + o.workload + "'");
  if (o.trace != 0 && o.trace != 1) usage_error("--trace must be 0 or 1");
  if (!(o.seconds > 0.0)) usage_error("--seconds must be > 0");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Start a peak-RSS window: hand memory that earlier jobs freed back to the
/// OS, so the window starts from live data as in a fresh process rather
/// than from what the allocator kept for exited rank threads, then reset
/// the kernel's peak-RSS mark (VmHWM) to the current RSS.
void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset the peak RSS mark (/proc/self/clear_refs)");
}

/// Peak RSS (VmHWM) since the last reset_peak_rss(), in MiB.
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

u64 reads_digest(const Dataset& ds) {
  std::string all;
  for (const auto& r : ds.reads) all += r.seq + '\n';
  return output_digest(all, std::to_string(ds.genome_length));
}

/// Metrics in print order: name -> (value, unit).
class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void print_json(std::ostream& os) const {
    os << "\"metrics\": {";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      os << (i ? ", " : "") << '"' << items_[i].name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << items_[i].unit << "\"}";
    }
    os << "}";
  }
  void print_table(std::ostream& os) const {
    for (const auto& m : items_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", m.value);
      os << "  " << m.name << std::string(m.name.size() < 34 ? 34 - m.name.size() : 1, ' ')
         << buf << ' ' << m.unit << '\n';
    }
  }

  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// Output gate: every job must reproduce the digest of the first job of
/// its workload on the same dataset.
class Gate {
 public:
  explicit Gate(std::size_t datasets) : reference_(datasets) {}

  /// Record one job on dataset `d`; returns whether it passed.
  bool check(const JobResult& r, std::size_t d, const char* what) {
    ++attempted_;
    bool ok = r.ok;
    if (ok && !reference_[d]) reference_[d] = r.digest;
    if (ok && r.digest != *reference_[d]) ok = false;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: FAILED " << what << " job on dataset " << d << ": "
                << (r.ok ? "PAF+GFA digest differs from the workload's first job"
                         : "threw: " + r.error)
                << "\n";
    }
    return ok;
  }
  void fail(const std::string& why) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << why << "\n";
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  std::vector<std::optional<u64>> reference_;
  long attempted_ = 0;
  long failed_ = 0;
};

struct CommTotals {
  double collectives = 0, peer_bytes = 0, retries = 0;
  std::vector<double> blocked_by_rank, hidden_by_rank;
  double blocked_s() const { return max_of(blocked_by_rank); }
  double hidden_s() const { return max_of(hidden_by_rank); }
  static double max_of(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  }
};

/// Comm totals from one job's exchange log, keyed by stage tag ("" = all
/// stages): collectives as one rank sees them, bytes and retries summed over
/// ranks, blocked and hidden wall per rank (reported as the max). The
/// benchmark's own barriers are excluded.
std::map<std::string, CommTotals> comm_totals(
    const std::vector<std::vector<dibella::comm::ExchangeRecord>>& log) {
  std::map<std::string, CommTotals> out;
  for (std::size_t r = 0; r < log.size(); ++r) {
    for (const auto& rec : log[r]) {
      if (rec.stage == kBenchStageTag) continue;
      const std::string tag = rec.stage == "ht" ? "dht" : rec.stage;
      for (const std::string& key : {tag, std::string()}) {
        CommTotals& t = out[key];
        if (r == 0) t.collectives += 1;
        t.peer_bytes += static_cast<double>(rec.total_bytes());
        t.retries += static_cast<double>(rec.retries);
        t.blocked_by_rank.resize(log.size(), 0.0);
        t.hidden_by_rank.resize(log.size(), 0.0);
        t.blocked_by_rank[r] += rec.wall_seconds;
        t.hidden_by_rank[r] += rec.hidden_wall_seconds;
      }
    }
  }
  return out;
}

/// Per-layer metrics of one traced job. Work counts come from the
/// PipelineCounters of the dataset's reference (run_pipeline) job, times
/// from the traced job's spans, comm numbers from its exchange log.
Metrics layer_metrics(const TracedJobResult& t, const JobResult& ref, double untraced_wall_s) {
  const auto& c = ref.counters;
  const SpanSummary s{t.spans, kRanks};
  const auto busy = [&](const char* name) { return s.max_over_lanes(name); };
  Metrics m;
  m.put("sketch.seed_keep_frac", ratio(c.sketch_seeds_kept, c.sketch_windows), "ratio");
  m.put("bloom.kmers", c.kmers_parsed, "count");
  m.put("bloom.busy_s", busy("bloom"), "s");
  m.put("bloom.wait_s", busy("bloom.wait"), "s");
  m.put("dht.busy_s", busy("dht"), "s");
  m.put("dht.wait_s", busy("dht.wait"), "s");
  m.put("dht.retained_kmers", c.retained_kmers, "count");
  m.put("overlap.busy_s", busy("overlap"), "s");
  m.put("overlap.wait_s", busy("overlap.wait"), "s");
  m.put("overlap.tasks", c.overlap_tasks, "count");
  m.put("overlap.tasks_per_pair", ratio(c.overlap_tasks, c.read_pairs), "ratio");
  m.put("align.extend_s", busy("align.extend"), "s");
  m.put("align.extend_mean_s", s.mean_over_ranks("align.extend"), "s");
  m.put("align.imbalance", ratio(busy("align.extend"), s.mean_over_ranks("align.extend")),
        "ratio");
  m.put("align.wait_s", busy("align.wait"), "s");
  m.put("align.dp_cells", c.dp_cells, "count");
  m.put("align.ns_per_cell", 1e9 * ratio(s.sum_over_ranks("align.extend"), c.dp_cells),
        "ns/cell");
  m.put("align.read_exchange_s", busy("align.read_exchange"), "s");
  m.put("align.read_exchange_wait_s", busy("align.read_exchange.wait"), "s");
  m.put("align.reads_exchanged", c.reads_exchanged, "count");
  m.put("align.read_bytes", c.read_bytes_exchanged, "bytes");
  m.put("align.true_pair_frac",
        ratio(ref.eval.overlap.true_positives, c.alignments_reported), "ratio");
  m.put("sgraph.busy_s", busy("sgraph"), "s");
  m.put("sgraph.wait_s", busy("sgraph.wait"), "s");
  m.put("sgraph.finalize_s", busy("sgraph.finalize"), "s");
  m.put("sgraph.internal_frac", ratio(c.sg_internal_records, c.alignments_reported), "ratio");
  m.put("sgraph.edges_removed", c.sg_edges_removed, "count");
  m.put("sgraph.write_gfa_s", busy("sgraph.write_gfa"), "s");
  m.put("core.merge_s", busy("core.merge"), "s");
  m.put("core.write_paf_s", busy("core.write_paf"), "s");
  m.put("core.paf_bytes", ref.paf_bytes, "bytes");
  m.put("eval.evaluate_s", busy("eval.evaluate"), "s");
  m.put("eval.unitig_misjoins", ref.eval.unitigs.misjoined_unitigs, "count");
  m.put("core.spill_write_s", busy("core.spill_write"), "s");
  m.put("core.spill_bytes", c.spill_bytes, "bytes");
  m.put("io.block_loads", c.block_loads, "count");
  m.put("io.block_evictions", c.block_evictions, "count");
  m.put("io.peak_resident_read_bytes", c.peak_resident_read_bytes, "bytes");
  m.put("io.store_s", busy("io.store"), "s");
  for (const std::string& layer : layers()) m.put(layer + ".self_s", s.layer_self(layer), "s");
  auto comm = comm_totals(t.exchange_log);
  for (const std::string tag : {"", "bloom", "dht", "overlap", "align", "sgraph"}) {
    const std::string prefix = tag.empty() ? "comm." : "comm." + tag + ".";
    const CommTotals& ct = comm[tag];
    m.put(prefix + "collectives", ct.collectives, "count");
    m.put(prefix + "peer_bytes", ct.peer_bytes, "bytes");
    m.put(prefix + "blocked_s", ct.blocked_s(), "s");
    m.put(prefix + "hidden_s", ct.hidden_s(), "s");
    m.put(prefix + "retries", ct.retries, "count");
  }
  m.put("trace.overhead_frac", ratio(t.job.wall_s, untraced_wall_s) - 1.0, "ratio");
  m.put("trace.unattributed_s", s.unattributed(), "s");
  return m;
}

int run(const Options& opt) {
  const Workload& workload = *find_workload(opt.workload);
  namespace fs = std::filesystem;
  fs::create_directories(opt.work_dir);
  const std::string spill_dir = (fs::path(opt.work_dir) / "spill").string();
  fs::create_directories(spill_dir);
  Gate gate(kDatasets);
  long job_index = 0;
  const auto next_corrupt = [&] { return job_index++ == opt.corrupt_job; };

  // Only the dataset being run is in memory, as in a CLI process: each is
  // regenerated from (seed, index) just before its jobs, outside the timed
  // and peak-RSS windows, and must reproduce its first generation.
  std::optional<Dataset> ds;
  u32 ds_index = 0;
  std::vector<std::optional<u64>> ds_digest(kDatasets);
  const auto generate = [&](u32 d) {
    ds.reset();
    const i64 t0 = now_ns();
    ds = make_dataset(opt.seed, d);
    const double gen = static_cast<double>(now_ns() - t0) * 1e-9;
    ds_index = d;
    const u64 h = reads_digest(*ds);
    if (!ds_digest[d]) ds_digest[d] = h;
    if (h != *ds_digest[d]) gate.fail("dataset generation is not deterministic in the seed");
    return gen;
  };
  const auto load = [&](u32 d) {
    if (ds_index != d) generate(d);
  };

  // --- set-up, repeated: dataset 0's generation; then the run path's
  // first-use cost, measured once as a cold tiny job minus warm ones.
  std::vector<double> gen_s;
  for (int pass = 0; pass < kSetupGenerations; ++pass) gen_s.push_back(generate(0));
  const Dataset tiny = make_tiny_dataset();
  const auto tiny_cfg = make_config(*find_workload("ecoli30x"), tiny, spill_dir);
  const double cold_tiny = run_job(tiny, tiny_cfg, false).wall_s;
  std::vector<double> warm_tiny;
  for (int i = 0; i < kWarmTinyJobs; ++i) {
    warm_tiny.push_back(run_job(tiny, tiny_cfg, false).wall_s);
  }
  const double first_use_s = std::max(0.0, cold_tiny - median(warm_tiny));
  const double setup_s = median(gen_s) + first_use_s;
  std::cerr << "perfbench: " << workload.name << " seed " << opt.seed << ": " << kDatasets
            << " datasets of ~" << ds->reads.size() << " reads over " << ds->genome_length
            << " bp, " << kRanks << " ranks\n";

  // Each dataset's first passing job is its gate reference; its unitig
  // spans are scored while the dataset is loaded.
  std::vector<std::optional<JobResult>> ref(kDatasets);
  std::vector<std::vector<u64>> ref_spans(kDatasets);
  const auto set_ref = [&](u32 d, JobResult&& r) {
    ref_spans[d] = unitig_spans(*ds, r.unitigs);
    if (dibella::util::n50(ref_spans[d]) != r.eval.unitigs.unitig_n50) {
      gate.fail("per-unitig spans do not reproduce eval's unitig N50");
    }
    ref[d] = std::move(r);
  };

  // --- warm-up: the workload's first job, and dataset 0's gate reference.
  {
    JobResult r = run_job(*ds, make_config(workload, *ds, spill_dir), next_corrupt());
    if (gate.check(r, 0, "warm-up")) set_ref(0, std::move(r));
  }

  // --- measured jobs: whole rounds over the datasets until --seconds have
  // passed, so every dataset weighs the same in the medians however fast
  // the code is. --trace 1 stops after any job once --seconds have passed.
  std::vector<double> walls, job_peak_rss;
  struct TracedSample {
    TracedJobResult t;
    u32 dataset;
    double untraced_wall_s;  ///< the job run just before it on the same dataset
  };
  std::vector<TracedSample> traced;
  const u32 round = opt.trace ? 1 : kDatasets;
  const i64 start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  for (u32 i = 0; elapsed() < opt.seconds || i % round != 0; ++i) {
    const u32 d = i % kDatasets;
    load(d);
    const auto cfg = make_config(workload, *ds, spill_dir);
    reset_peak_rss();
    JobResult r = run_job(*ds, cfg, next_corrupt());
    job_peak_rss.push_back(peak_rss_mib());
    if (!gate.check(r, d, "timed")) continue;
    walls.push_back(r.wall_s);
    const double wall = r.wall_s;
    if (!ref[d]) set_ref(d, std::move(r));
    if (!opt.trace) continue;
    TracedJobResult t = run_traced_job(*ds, cfg);
    if (next_corrupt()) t.job.digest ^= 1;
    if (!gate.check(t.job, d, "traced (its composition no longer matches run_pipeline)")) continue;
    const auto& c = ref[d]->counters;
    if (t.counts.kmers_parsed != c.kmers_parsed || t.counts.overlap_tasks != c.overlap_tasks ||
        t.counts.dp_cells != c.dp_cells || t.counts.alignments_reported != c.alignments_reported) {
      gate.fail("traced composition's work counts differ from run_pipeline's");
      continue;
    }
    traced.push_back({std::move(t), d, wall});
  }

  // --- blocks invariant: the out-of-core job equals the in-memory one.
  if (workload.blocks > 1) {
    load(0);
    const auto mem_cfg = make_config(*find_workload("ecoli30x"), *ds, spill_dir);
    gate.check(run_job(*ds, mem_cfg, next_corrupt()), 0, "in-memory twin of the blocks");
  }

  Metrics m;
  if (opt.trace == 0) {
    // Quality pooled over the datasets, as if their genomes were one:
    // overlap counts summed, N50 over every dataset's unitig spans.
    double tp = 0, truth = 0, reported = 0, misjoins = 0;
    std::vector<u64> spans;
    for (u32 d = 0; d < kDatasets; ++d) {
      if (!ref[d]) continue;
      const JobResult& r = *ref[d];
      tp += static_cast<double>(r.eval.overlap.true_positives);
      truth += static_cast<double>(r.eval.overlap.true_pairs);
      reported += static_cast<double>(r.eval.overlap.reported_pairs);
      misjoins += static_cast<double>(r.eval.unitigs.misjoined_unitigs);
      spans.insert(spans.end(), ref_spans[d].begin(), ref_spans[d].end());
    }
    m.put("job_wall_s", median(walls), "s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", median(job_peak_rss), "MiB");
    m.put("recall", ratio(tp, truth), "ratio");
    m.put("precision", ratio(tp, reported), "ratio");
    m.put("unitig_n50_bp", dibella::util::n50(spans), "bp");
    std::cerr << "perfbench: " << walls.size() << " timed jobs over " << kDatasets
              << " datasets; job walls (s):";
    for (double w : walls) std::cerr << ' ' << w;
    std::cerr << "\nperfbench: unitig misjoins " << misjoins << "; job_fail_rate "
              << ratio(gate.failed(), gate.attempted()) << "\n";
  } else {
    // Medians over the traced jobs of each per-job metric.
    std::vector<Metrics> per_job;
    for (const auto& s : traced) {
      per_job.push_back(layer_metrics(s.t, *ref[s.dataset], s.untraced_wall_s));
    }
    m.put("simgen.generate_s", median(gen_s), "s");
    m.put("core.calibrate_s", first_use_s, "s");
    if (!per_job.empty()) {
      for (std::size_t k = 0; k < per_job[0].items().size(); ++k) {
        std::vector<double> v;
        for (const Metrics& pm : per_job) v.push_back(pm.items()[k].value);
        m.put(per_job[0].items()[k].name, median(v), per_job[0].items()[k].unit);
      }
    }
    // Spans stay in memory until here; write them out once.
    const fs::path spans_path = fs::path(opt.work_dir) / ("spans-" + opt.workload + "-seed" +
                                                          std::to_string(opt.seed) + ".tsv");
    std::ofstream os(spans_path);
    os << "job\tlane\tid\tparent\tlayer\tname\tstart_ns\tend_ns\n";
    for (std::size_t j = 0; j < traced.size(); ++j) {
      const auto& spans = traced[j].t.spans;
      i64 origin = spans.front().start_ns;
      for (const SpanRec& sp : spans) origin = std::min(origin, sp.start_ns);
      write_spans_tsv(os, static_cast<int>(j), spans, origin);
    }
    std::cerr << "perfbench: spans of " << traced.size() << " traced jobs -> "
              << spans_path.string() << "\n";
  }

  std::cerr << "perfbench: " << gate.failed() << " of " << gate.attempted() << " jobs failed\n";
  m.print_table(std::cerr);
  std::cout << "{\"correct\": " << (gate.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << gate.attempted() << ", \"failed\": " << gate.failed()
            << ", ";
  m.print_json(std::cout);
  std::cout << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse_options(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
