#include "cli/driver.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "align/xdrop.hpp"
#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "eval/report.hpp"
#include "io/fastx.hpp"
#include "io/truth.hpp"
#include "kmer/kmer.hpp"
#include "netsim/cost_model.hpp"
#include "netsim/platform.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace_export.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace dibella::cli {

namespace {

constexpr const char* kUsage = R"(dibella — distributed long read to long read alignment (paper pipeline driver)

Runs the diBELLA pipeline (distributed Bloom filter, distributed hash
table, overlap detection, read exchange + x-drop alignment, and optionally
stage 5: distributed string-graph reduction + unitig/GFA layout) over P
in-process SPMD ranks, then writes the alignments, stage counters, string
graph, and the netsim cost-model report.

usage: dibella [options]            (all options are --key=value or --flag)

input (choose one):
  --input=PATH          FASTA/FASTQ file of long reads (format auto-detected)
  --preset=NAME         simulated dataset: tiny | ecoli30x | ecoli100x
                        (default: ecoli30x)
  --scale=F             genome scale for ecoli presets, 0 < F <= 1 (default 0.01)

pipeline:
  --ranks=N             SPMD ranks to run (default 4)
  --k=N                 k-mer length (default 17)
  --min-kmer-count=N    singleton floor (default 2)
  --max-kmer-count=N    repeat ceiling m; 0 = auto via BELLA model (default 0)
  --coverage=F          assumed coverage for the auto-m model, F > 0
                        (preset supplies)
  --error-rate=F        assumed per-base error rate, 0 <= F < 1 (preset
                        supplies)
  --seed-policy=P       one | spaced | all (default one)
  --spacing=N           min seed distance for --seed-policy=spaced (default 1000)
  --minimizer-w=N       sketch each read before stages 1-3: only its window
                        minimizers (windows of N consecutive k-mers, ~2/(N+1)
                        of the dense seed volume) enter the Bloom routing,
                        hash table, and overlap task exchange. 0 = dense,
                        every k-mer window. Outputs at a fixed N stay
                        byte-identical across ranks, schedules, and blocks.
                        Default: 10 for presets, 0 for --input.
  --syncmer=MODE        on  = closed-syncmer selection (s = k - N + 1, ~2/N
                              density) instead of window minimizers; needs
                              2 <= --minimizer-w <= k-1
                        off = window minimizers (default)
  --chain=MODE          on  = colinear-chain each pair's seeds (gap-cost DP
                              over position-sorted hits) and x-drop extend
                              only the best chain's anchor — one extension
                              per pair (default)
                        off = extend every surviving seed, keep the best
  --xdrop=N             x-drop termination threshold, 0..10^8 (default 25)
  --min-score=N         drop alignments scoring below N (default 0)
  --bloom-fpr=F         Bloom filter false-positive rate, 0 < F < 1
                        (default 0.05)
  --overlap-comm=MODE   on  = nonblocking batched exchanges overlapped with
                              compute (default)
                        off = bulk-synchronous pack -> exchange -> consume
                        Alignments and counters are identical either way;
                        with a modeled --platform, timings.tsv shows the
                        exposed/hidden exchange split.

out-of-core (scaling beyond RAM):
  --blocks=N            split each rank's read partition into N 2-bit packed
                        blocks, loaded/evicted lazily; stage 4 runs one
                        read-exchange + alignment round per block and spills
                        each round's sorted records to disk, producing the
                        PAF by k-way merge. 1 = fully in-memory (default).
                        alignments.paf, graph.gfa, and eval.tsv are
                        byte-identical for any N.
  --memory-budget=SIZE  cap on unpacked resident sequence bytes per rank
                        (local blocks + remote-read cache); accepts K/M/G
                        suffixes (e.g. 64M). 0 = load lazily, never evict.
                        Requires --blocks >= 2.
  --spill-dir=PATH      parent directory for the per-run spill directory
                        dibella-spill-<pid>-<seq> (default: system temp).
                        Removed when the run finishes. Requires --blocks >= 2.

fault tolerance:
  --checkpoint-dir=DIR  persist a checksummed per-rank checkpoint after each
                        completed stage (manifest.tsv + stage<n>.<name>.r<rank>.bin).
                        Required by --resume and --on-rank-failure=degrade.
  --resume              skip the stages the checkpoint in --checkpoint-dir
                        records as complete, restore the last one's state, and
                        continue. The checkpoint must come from a matching run
                        (same reads, rank count, and output-determining
                        parameters); alignments.paf, graph.gfa, and eval.tsv
                        are byte-identical to an uninterrupted run's, across
                        rank counts and --overlap-comm modes.
  --on-rank-failure=M   fail (default) = a lost rank poisons the world; every
                        sibling unwinds and the run exits with code 3.
                        degrade = re-run from the last completed checkpoint
                        with the failed rank's shard dropped: surviving shards
                        finish, and eval.tsv states the honest (lower) recall
                        plus a run/degraded_ranks row. Requires
                        --checkpoint-dir (no checkpoint, nothing to salvage).
  --inject-fault=SPECS  deterministic fault injection (testing), a comma list
                        of KIND@STAGE:EPOCH[:RANK] specs, e.g. drop@overlap:0
                        or abort@align:0:2. KIND: drop | duplicate | delay |
                        truncate | bitflip are transport faults absorbed by
                        the self-healing exchange under either
                        --overlap-comm schedule (they show up in the
                        comm_chunk_retries / _redeliveries / _corrupt_chunks
                        counters); abort kills the rank at that collective.
                        STAGE: bloom | ht | overlap | align | sgraph. EPOCH
                        counts that stage's collectives on the injecting
                        RANK (default 0).

string graph (stage 5):
  --stage5=MODE         on (default) = build the string graph from the
                        alignments: classify contained/dovetail/internal
                        edges, run the distributed transitive reduction,
                        extract unitigs, and write GFA1 + components.tsv
                        + unitigs.tsv.
                        off = stop after alignment (stages 1-4 only).
  --gfa=PATH            GFA1 output path (default <out-dir>/graph.gfa);
                        an explicit path is honored even with --no-output
  --min-overlap-score=N drop alignments scoring below N before the graph
                        (default 0)

evaluation (ground truth):
  --eval=MODE           on = score the run against ground truth — overlap
                        recall/precision/F1 with per-length recall bins,
                        plus stage-5 unitig fidelity — and write eval.tsv.
                        off = skip. Default: on for simulated presets
                        (truth is free), off for --input (truth must come
                        from a sidecar; --truth implies on).
  --truth=PATH          ground-truth TSV for --input reads (the format
                        reads.truth.tsv / make_dataset's *.truth.tsv use).
                        Default: <input>.truth.tsv, then the input file's
                        extension replaced by .truth.tsv.
  --eval-min-overlap=N  genomic bases two reads must share to count as a
                        true overlap (default: the preset's oracle
                        threshold, or 2000 for --input)

cost model:
  --platform=NAME       cori | edison | titan | aws = project the run onto
                        that machine: print the cost-model table and write
                        timings.tsv (calibrates this host's kernel costs
                        once, ~1 s). local (default) = no model.
  --ranks-per-node=N    simulated ranks per node (default min(4, ranks);
                        must divide --ranks)

observability:
  --trace=FILE          record wallclock spans and write a Chrome trace-event
                        JSON timeline to FILE (open in ui.perfetto.dev or
                        chrome://tracing): one track per rank, nested stage /
                        round / kernel spans, async arrows for in-flight
                        exchanges. Honored even with --no-output. Outputs are
                        byte-identical with tracing on or off.
  --profile-report      collect spans and print the post-run profile: per-stage
                        critical path, exposed vs hidden exchange wallclock,
                        per-rank load imbalance, and the hottest spans. Also
                        writes profile.tsv to --out-dir (unless --no-output).

output:
  --out-dir=DIR         directory for alignments.paf, counters.tsv
                        (+ timings.tsv with a modeled --platform, reads.fasta
                        for simulated input) (default dibella_out)
  --no-output           print to stdout only, write no files
  --help                show this message

exit codes:
  0  success
  1  runtime error (I/O failure, bad input data, failed internal check)
  2  usage error (unknown or inconsistent options)
  3  communication failure / rank loss (the world was poisoned and unwound)
)";

/// Every option the driver understands; anything else is a usage error
/// (catches --rank=8 style typos that would otherwise silently no-op).
const std::set<std::string>& known_options() {
  static const std::set<std::string> opts = {
      "input",      "preset",        "scale",          "ranks",
      "k",          "min-kmer-count", "max-kmer-count", "coverage",
      "error-rate", "seed-policy",   "spacing",        "xdrop",
      "minimizer-w", "syncmer",      "chain",
      "min-score",  "bloom-fpr",     "overlap-comm",   "platform",
      "ranks-per-node", "out-dir",   "no-output",      "help",
      "stage5",     "gfa",           "min-overlap-score",
      "eval",       "truth",         "eval-min-overlap",
      "blocks",     "memory-budget", "spill-dir",
      "checkpoint-dir", "resume",    "on-rank-failure", "inject-fault",
      "trace",      "profile-report"};
  return opts;
}

struct UsageError : Error {
  using Error::Error;
};

/// Strict integer option parsing. Args::get_i64 silently falls back on
/// garbage, which would let --ranks=abc run with the default, and a bare
/// narrowing cast wraps (--k=4294967313 would run as k = 17). Anything that
/// is not an integer in [lo, hi] is a usage error, a value strtoll cannot
/// hold (ERANGE) included, so the narrowing to T is exact.
template <typename T>
T parse_int_in(const util::Args& args, const std::string& key, T fallback, i64 lo,
               i64 hi) {
  DIBELLA_CHECK(std::in_range<T>(lo) && std::in_range<T>(hi) && lo <= hi,
                "parse_int_in: [lo, hi] must fit the option's type");
  if (!args.has(key)) return fallback;
  const std::string v = args.get(key, "");
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size()) {
    throw UsageError("--" + key + "=" + v + " is not an integer");
  }
  if (errno == ERANGE || parsed < lo || parsed > hi) {
    throw UsageError("--" + key + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  }
  return static_cast<T>(parsed);
}

/// Which ends of a float option's range are themselves allowed.
enum class Ends { kOpen, kClosedLow, kClosedHigh };

/// Strict floating-point option parsing, the parse_int_in of float flags:
/// anything that is not a finite number inside the option's range is a
/// usage error. strtod accepts "nan" and "inf", and a NaN would slip past
/// any range check, so finiteness is checked first.
double parse_double_in(const util::Args& args, const std::string& key, double fallback,
                       double lo, double hi, Ends ends) {
  if (!args.has(key)) return fallback;
  const std::string v = args.get(key, "");
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size()) {
    throw UsageError("--" + key + "=" + v + " is not a number");
  }
  const bool above_lo = ends == Ends::kClosedLow ? parsed >= lo : parsed > lo;
  const bool below_hi = ends == Ends::kClosedHigh ? parsed <= hi : parsed < hi;
  if (!std::isfinite(parsed) || !above_lo || !below_hi) {
    std::ostringstream range;
    range << (ends == Ends::kClosedLow ? '[' : '(') << lo << ", " << hi
          << (ends == Ends::kClosedHigh ? ']' : ')');
    throw UsageError("--" + key + " must be a number in " + range.str());
  }
  return parsed;
}

/// An on|off option; any other value is a usage error.
bool parse_on_off(const util::Args& args, const std::string& key, bool fallback) {
  if (!args.has(key)) return fallback;
  const std::string v = args.get(key, "");
  if (v == "on") return true;
  if (v == "off") return false;
  throw UsageError("unknown --" + key + "=" + v + " (expected on|off)");
}

/// Byte sizes with optional K/M/G binary suffix: "64M" -> 64 * 2^20. Like
/// parse_int_in, a sign (strtoull would wrap "-1" to 2^64 - 1) or a size
/// past 2^64 - 1 is a usage error.
u64 parse_size(const util::Args& args, const std::string& key, u64 fallback) {
  if (!args.has(key)) return fallback;
  const std::string v = args.get(key, "");
  char* end = nullptr;
  errno = 0;
  const u64 parsed = static_cast<u64>(std::strtoull(v.c_str(), &end, 10));
  if (v.empty() || std::isdigit(static_cast<unsigned char>(v[0])) == 0) {
    throw UsageError("--" + key + "=" + v + " is not a byte size");
  }
  u64 scale = 1;
  if (end != v.c_str() + v.size() && end == v.c_str() + v.size() - 1) {
    switch (*end) {
      case 'K': case 'k': scale = u64{1} << 10; ++end; break;
      case 'M': case 'm': scale = u64{1} << 20; ++end; break;
      case 'G': case 'g': scale = u64{1} << 30; ++end; break;
      default: break;
    }
  }
  if (end != v.c_str() + v.size()) {
    throw UsageError("--" + key + "=" + v + " is not a byte size (try 64M)");
  }
  if (errno == ERANGE || parsed > std::numeric_limits<u64>::max() / scale) {
    throw UsageError("--" + key + "=" + v + " does not fit in 64 bits");
  }
  return parsed * scale;
}

netsim::Platform platform_by_name(const std::string& name) {
  if (name == "local") return netsim::local_host();
  if (name == "cori") return netsim::cori();
  if (name == "edison") return netsim::edison();
  if (name == "titan") return netsim::titan();
  if (name == "aws") return netsim::aws();
  throw UsageError("unknown --platform=" + name +
                   " (expected local|cori|edison|titan|aws)");
}

/// FASTA vs FASTQ by leading record marker ('>' vs '@').
std::vector<io::Read> load_reads(const std::string& path, std::ostream& out) {
  std::string data = io::load_file(path);
  std::size_t first = data.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) throw Error("input file is empty: " + path);
  std::vector<io::Read> reads = data[first] == '>' ? io::parse_fasta(data)
                                                   : io::parse_fastq(data);
  out << "loaded " << reads.size() << " reads from " << path << "\n";
  return reads;
}

void write_file(const std::filesystem::path& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw Error("cannot open for writing: " + path.string());
  os << data;
  if (!os.flush()) throw Error("write failed: " + path.string());
}

std::string timings_tsv(const netsim::TimingReport& report) {
  std::ostringstream os;
  os << obs::tsv_schema_header() << "\n";
  os << "stage\tcompute_virtual_s\texchange_virtual_s\texchange_exposed_s"
     << "\texchange_hidden_s\ttotal_virtual_s\texchange_bytes\texchange_calls\n";
  auto row = [&](const std::string& name, const netsim::StageTiming& t) {
    os << name << "\t" << t.compute_virtual << "\t" << t.exchange_virtual << "\t"
       << t.exchange_exposed_virtual << "\t" << t.exchange_hidden_virtual() << "\t"
       << t.total_virtual() << "\t" << t.exchange_bytes << "\t" << t.exchange_calls
       << "\n";
  };
  u64 bytes = 0, calls = 0;
  for (const auto& name : report.stage_order) {
    const auto& t = report.stage(name);
    row(name, t);
    bytes += t.exchange_bytes;
    calls += t.exchange_calls;
  }
  os << "total\t" << report.total_compute_virtual() << "\t"
     << report.total_exchange_virtual() << "\t"
     << report.total_exchange_exposed_virtual() << "\t"
     << report.total_exchange_virtual() - report.total_exchange_exposed_virtual()
     << "\t" << report.total_virtual() << "\t" << bytes << "\t" << calls << "\n";
  return os.str();
}

void print_counters(std::ostream& out, const core::PipelineCounters& c, int ranks,
                    bool stage5) {
  util::Table t({"stage counter", "value"});
  auto row = [&](const char* name, u64 v) {
    t.start_row();
    t.cell(name);
    t.cell(v);
  };
  row("1. k-mer instances parsed", c.kmers_parsed);
  row("1. candidate keys (Bloom-approved)", c.candidate_keys);
  row("2. retained k-mers (2 <= count <= m)", c.retained_kmers);
  row("2. purged high-frequency keys", c.purged_keys);
  row("3. overlap tasks exchanged", c.overlap_tasks);
  row("3. distinct read pairs", c.read_pairs);
  row("3. seeds after filter", c.seeds_after_filter);
  row("4. reads replicated in exchange", c.reads_exchanged);
  row("4. pairs aligned", c.pairs_aligned);
  row("4. seed extensions (alignments)", c.alignments_computed);
  row("4. alignments reported", c.alignments_reported);
  if (stage5) {
    row("5. contained reads dropped", c.sg_contained_reads);
    row("5. internal matches discarded", c.sg_internal_records);
    row("5. dovetail edges", c.sg_dovetail_edges);
    row("5. edges removed (transitive)", c.sg_edges_removed);
    row("5. edges surviving", c.sg_edges_surviving);
    row("5. unitigs", c.sg_unitigs);
    row("5. components", c.sg_components);
  }
  // Cross-cutting counters print as their own grouped blocks below the
  // per-stage rows (sketch, chain, mem, comm) instead of interleaving with
  // the stage that happens to produce them.
  if (c.sketch_seeds_kept != c.sketch_windows) {  // sketching actually sampled
    row("sketch. k-mer windows scanned", c.sketch_windows);
    row("sketch. minimizer seeds kept", c.sketch_seeds_kept);
  }
  if (c.chain_anchors > 0) {
    row("chain. pairs extended from chain anchor", c.chain_anchors);
    row("chain. seeds subsumed by chains", c.chain_dropped_seeds);
  }
  row("mem. peak resident read bytes", c.peak_resident_read_bytes);
  if (c.packed_read_bytes > 0) {  // out-of-core rows only mean something in block mode
    row("mem. packed block bytes", c.packed_read_bytes);
    row("mem. block loads", c.block_loads);
    row("mem. block evictions", c.block_evictions);
    row("mem. spill bytes", c.spill_bytes);
    row("mem. spill runs", c.spill_runs);
  }
  if (c.comm_chunk_retries || c.comm_chunk_redeliveries || c.comm_corrupt_chunks) {
    row("comm. chunk retries", c.comm_chunk_retries);
    row("comm. duplicate chunks discarded", c.comm_chunk_redeliveries);
    row("comm. corrupt chunks dropped", c.comm_corrupt_chunks);
  }
  out << t.to_text("diBELLA pipeline on " + std::to_string(ranks) + " ranks");
}

void print_eval(std::ostream& out, const eval::EvalReport& r) {
  util::Table t({"quality metric", "value"});
  auto row_u = [&](const char* name, u64 v) {
    t.start_row();
    t.cell(name);
    t.cell(v);
  };
  auto row_d = [&](const char* name, double v) {
    t.start_row();
    t.cell(name);
    t.cell(v, 6);
  };
  row_u("true overlap pairs", r.overlap.true_pairs);
  row_u("reported pairs", r.overlap.reported_pairs);
  row_u("true positives", r.overlap.true_positives);
  row_u("false positives", r.overlap.false_positives);
  if (r.degraded_ranks > 0) {
    row_u("degraded ranks (shards dropped)", r.degraded_ranks);
  }
  row_d("recall", r.overlap.recall());
  row_d("precision", r.overlap.precision());
  row_d("F1", r.overlap.f1());
  if (r.has_unitigs) {
    row_u("unitig misjoins", r.unitigs.misjoined_unitigs);
    row_u("unitig breakpoints", r.unitigs.breakpoints);
    row_u("unitig N50 (genome bp)", r.unitigs.unitig_n50);
    row_u("truth contig N50 (bp)", r.unitigs.truth_n50);
    row_u("truth-contained reads", r.unitigs.truth_contained_reads);
  }
  out << "\n"
      << t.to_text("ground-truth evaluation (true overlap >= " +
                   std::to_string(r.config.min_true_overlap) + " bp)");
}

void print_timings(std::ostream& out, const netsim::TimingReport& report,
                   const netsim::Platform& platform, const netsim::Topology& topo) {
  util::Table t({"stage", "compute (s)", "exchange (s)", "exposed (s)", "hidden (s)",
                 "total (s)", "bytes"});
  for (const auto& name : report.stage_order) {
    const auto& s = report.stage(name);
    t.start_row();
    t.cell(name);
    t.cell(s.compute_virtual, 4);
    t.cell(s.exchange_virtual, 4);
    t.cell(s.exchange_exposed_virtual, 4);
    t.cell(s.exchange_hidden_virtual(), 4);
    t.cell(s.total_virtual(), 4);
    t.cell(util::format_si(static_cast<double>(s.exchange_bytes)));
  }
  t.start_row();
  t.cell("total");
  t.cell(report.total_compute_virtual(), 4);
  t.cell(report.total_exchange_virtual(), 4);
  t.cell(report.total_exchange_exposed_virtual(), 4);
  t.cell(report.total_exchange_virtual() - report.total_exchange_exposed_virtual(), 4);
  t.cell(report.total_virtual(), 4);
  t.cell("");
  out << "\n"
      << t.to_text("cost model: " + platform.name + ", " +
                   std::to_string(topo.nodes) + " node(s) x " +
                   std::to_string(topo.ranks_per_node) + " ranks/node");
}

int run_checked(const util::Args& args, std::ostream& out, std::ostream& err) {
  for (const auto& key : args.keys()) {
    if (known_options().count(key) == 0) {
      throw UsageError("unknown option --" + key + " (see --help)");
    }
  }
  if (!args.positional().empty()) {
    throw UsageError("unexpected positional argument '" + args.positional()[0] +
                     "' (options are --key=value)");
  }

  constexpr i64 kIntMax = std::numeric_limits<int>::max();
  constexpr i64 kU32Max = std::numeric_limits<u32>::max();
  const int ranks = parse_int_in(args, "ranks", 4, 1, kIntMax);
  // Default ranks-per-node: the largest divisor of ranks that is <= 4, so an
  // explicit --ranks=6 doesn't trip the divisibility check below.
  int default_rpn = 1;
  for (int d = 2; d <= std::min(4, ranks); ++d) {
    if (ranks % d == 0) default_rpn = d;
  }
  const int ranks_per_node = parse_int_in(args, "ranks-per-node", default_rpn, 1, kIntMax);
  if (ranks % ranks_per_node != 0) {
    throw UsageError("--ranks-per-node must divide --ranks");
  }

  // --- input: user file or simulated preset.
  std::vector<io::Read> reads;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double coverage = parse_double_in(args, "coverage", 30.0, 0.0, kInf, Ends::kOpen);
  double error_rate = parse_double_in(args, "error-rate", 0.15, 0.0, 1.0, Ends::kClosedLow);
  bool simulated = false;
  std::shared_ptr<const io::TruthTable> truth;
  u64 default_eval_min_overlap = 2000;
  if (args.has("input")) {
    if (args.has("preset")) throw UsageError("--input and --preset are exclusive");
    reads = load_reads(args.get("input", ""), out);
  } else {
    const std::string name = args.get("preset", "ecoli30x");
    const double scale = parse_double_in(args, "scale", 0.01, 0.0, 1.0, Ends::kClosedHigh);
    simgen::DatasetPreset preset;
    if (name == "tiny") {
      preset = simgen::tiny_test();
    } else if (name == "ecoli30x") {
      preset = simgen::ecoli30x_like(scale);
    } else if (name == "ecoli100x") {
      preset = simgen::ecoli100x_like(scale);
    } else {
      throw UsageError("unknown --preset=" + name +
                       " (expected tiny|ecoli30x|ecoli100x)");
    }
    // --coverage / --error-rate override only the data-model *assumptions*
    // (auto-m); the simulation itself always uses the preset's values, so
    // report those here.
    coverage = parse_double_in(args, "coverage", preset.reads.coverage, 0.0, kInf, Ends::kOpen);
    error_rate = parse_double_in(args, "error-rate", preset.reads.error_rate, 0.0, 1.0,
                                 Ends::kClosedLow);
    auto sim = simgen::make_dataset(preset);
    truth = std::make_shared<const io::TruthTable>(simgen::truth_table(sim));
    default_eval_min_overlap = preset.min_true_overlap;
    reads = std::move(sim.reads);
    simulated = true;
    out << "simulated " << reads.size() << " reads (" << preset.name
        << ", genome " << preset.genome.length << " bp, "
        << preset.reads.coverage << "x, " << 100 * preset.reads.error_rate
        << "% error)\n";
  }
  if (reads.empty()) throw Error("no reads to process");

  // --- pipeline configuration.
  core::PipelineConfig cfg;
  cfg.k = parse_int_in(args, "k", 17, 1, kmer::Kmer::max_k());
  cfg.min_kmer_count = parse_int_in<u32>(args, "min-kmer-count", 2, 0, kU32Max);
  cfg.max_kmer_count = parse_int_in<u32>(args, "max-kmer-count", 0, 0, kU32Max);
  cfg.assumed_coverage = coverage;
  cfg.assumed_error_rate = error_rate;
  cfg.bloom_fpr = parse_double_in(args, "bloom-fpr", cfg.bloom_fpr, 0.0, 1.0, Ends::kOpen);
  cfg.xdrop = parse_int_in(args, "xdrop", cfg.xdrop, 0, align::kMaxXdrop);
  cfg.min_report_score =
      parse_int_in(args, "min-score", 0, std::numeric_limits<int>::min(), kIntMax);
  const std::string policy = args.get("seed-policy", "one");
  if (policy == "one") {
    cfg.seed_filter = overlap::SeedFilterConfig::one_seed();
  } else if (policy == "spaced") {
    cfg.seed_filter = overlap::SeedFilterConfig::spaced(
        parse_int_in<u32>(args, "spacing", 1000, 0, kU32Max));
  } else if (policy == "all") {
    cfg.seed_filter = overlap::SeedFilterConfig::all_seeds(cfg.k);
  } else {
    throw UsageError("unknown --seed-policy=" + policy + " (expected one|spaced|all)");
  }
  // Sketching defaults on (w = 10) for simulated presets, where the issue's
  // density/recall trade-off is pinned by the eval tier; user-supplied input
  // stays dense unless asked.
  cfg.minimizer_w = parse_int_in<u32>(args, "minimizer-w", simulated ? 10 : 0, 0, 255);
  cfg.syncmer = parse_on_off(args, "syncmer", false);
  if (cfg.syncmer &&
      (cfg.minimizer_w < 2 || cfg.minimizer_w > static_cast<u32>(cfg.k) - 1)) {
    throw UsageError("--syncmer=on needs 2 <= --minimizer-w <= k-1 (s = k - w + 1 "
                     "s-mers must fit inside a k-mer)");
  }
  cfg.chain = parse_on_off(args, "chain", true);
  cfg.overlap_comm = parse_on_off(args, "overlap-comm", true);
  cfg.stage5 = parse_on_off(args, "stage5", true);
  cfg.min_overlap_score = parse_int_in(args, "min-overlap-score", cfg.min_overlap_score,
                                       std::numeric_limits<i32>::min(), kIntMax);
  if (args.has("gfa") && !cfg.stage5) {
    throw UsageError("--gfa requires --stage5=on");
  }
  cfg.blocks = parse_int_in<u32>(args, "blocks", 1, 1, kU32Max);
  cfg.memory_budget_bytes = parse_size(args, "memory-budget", 0);
  if (cfg.memory_budget_bytes > 0 && cfg.blocks < 2) {
    throw UsageError("--memory-budget requires --blocks >= 2 (nothing to evict)");
  }
  cfg.spill_dir = args.get("spill-dir", "");
  if (!cfg.spill_dir.empty() && cfg.blocks < 2) {
    throw UsageError("--spill-dir requires --blocks >= 2 (nothing spills in-memory)");
  }

  // --- fault tolerance.
  cfg.checkpoint_dir = args.get("checkpoint-dir", "");
  cfg.resume = args.get_bool("resume", false);
  if (cfg.resume && cfg.checkpoint_dir.empty()) {
    throw UsageError("--resume requires --checkpoint-dir");
  }
  const std::string on_failure = args.get("on-rank-failure", "fail");
  if (on_failure != "fail" && on_failure != "degrade") {
    throw UsageError("unknown --on-rank-failure=" + on_failure +
                     " (expected fail|degrade)");
  }
  const bool degrade_on_failure = on_failure == "degrade";
  if (degrade_on_failure && cfg.checkpoint_dir.empty()) {
    throw UsageError(
        "--on-rank-failure=degrade requires --checkpoint-dir (without a "
        "checkpoint there is nothing to salvage)");
  }
  std::shared_ptr<const comm::FaultPlan> fault_plan;
  if (args.has("inject-fault")) {
    try {
      fault_plan = comm::FaultPlan::parse(args.get("inject-fault", ""));
    } catch (const Error& e) {
      throw UsageError(std::string("--inject-fault: ") + e.what());
    }
    for (const comm::FaultSpec& spec : fault_plan->specs()) {
      if (spec.rank >= ranks) {
        throw UsageError("--inject-fault names rank " + std::to_string(spec.rank) +
                         " but the run has only " + std::to_string(ranks) +
                         " ranks");
      }
    }
  }

  // --- ground-truth evaluation: on by default when truth is free (simulated
  // presets) or explicitly supplied (--truth); off for bare file input.
  if (args.has("truth") && simulated) {
    throw UsageError("--truth only applies to --input (presets carry their own truth)");
  }
  const bool eval_on = parse_on_off(args, "eval", simulated || args.has("truth"));
  if (eval_on && !truth) {
    // File-based input: the provenance must come from a sidecar TSV.
    std::string truth_path;
    if (args.has("truth")) {
      truth_path = args.get("truth", "");
    } else {
      const std::filesystem::path input = args.get("input", "");
      const std::filesystem::path appended = input.string() + ".truth.tsv";
      const std::filesystem::path replaced =
          std::filesystem::path(input).replace_extension(".truth.tsv");
      if (std::filesystem::exists(appended)) {
        truth_path = appended.string();
      } else if (std::filesystem::exists(replaced)) {
        truth_path = replaced.string();
      } else {
        throw UsageError(
            "--eval=on needs ground truth for --input: pass --truth=PATH or "
            "provide a sidecar (" + appended.string() + " or " +
            replaced.string() + "); make_dataset and simulated dibella runs "
            "write one");
      }
    }
    io::TruthTable loaded = io::TruthTable::load_tsv(truth_path);
    if (loaded.size() != reads.size()) {
      throw Error("truth table " + truth_path + " covers " +
                  std::to_string(loaded.size()) + " reads but the input has " +
                  std::to_string(reads.size()));
    }
    truth = std::make_shared<const io::TruthTable>(std::move(loaded));
    out << "loaded ground truth for " << truth->size() << " reads from "
        << truth_path << "\n";
  }
  cfg.eval = eval_on;
  cfg.eval_min_overlap = parse_int_in(args, "eval-min-overlap", default_eval_min_overlap, 1,
                                      std::numeric_limits<i64>::max());

  // --- observability: spans are collected whenever any consumer asks.
  const bool profile_report = args.get_bool("profile-report", false);
  const std::string trace_path = args.get("trace", "");
  if (args.has("trace") && trace_path.empty()) {
    throw UsageError("--trace needs a file path (--trace=FILE)");
  }
  cfg.collect_spans = !trace_path.empty() || profile_report;

  const std::string platform_name = args.get("platform", "local");
  const netsim::Platform platform = platform_by_name(platform_name);
  const bool modeled = platform_name != "local";

  out << "k=" << cfg.k << "  m=" << cfg.resolved_max_kmer_count()
      << "  seed policy=" << policy << "  ranks=" << ranks
      << "  sketch=";
  if (cfg.minimizer_w >= 2) {
    out << (cfg.syncmer ? "syncmer" : "minimizer") << " w=" << cfg.minimizer_w;
  } else {
    out << "dense";
  }
  out << "  chain=" << (cfg.chain ? "on" : "off")
      << "  overlap-comm=" << (cfg.overlap_comm ? "on" : "off") << "  blocks=" << cfg.blocks << "\n\n";

  // --- run.
  core::PipelineOutput result;
  try {
    comm::World world(ranks);
    if (fault_plan) world.set_fault_plan(fault_plan);
    result = core::run_pipeline(world, reads, cfg, truth);
  } catch (const comm::RankFailure& e) {
    if (!degrade_on_failure) throw;
    const core::CheckpointStage last =
        core::CheckpointSet::probe_last_complete(cfg.checkpoint_dir);
    if (last == core::CheckpointStage::kNone) {
      err << "dibella: rank " << e.failed_rank()
          << " failed before any stage checkpoint completed; cannot degrade\n";
      throw;
    }
    err << "dibella: rank " << e.failed_rank() << " failed (" << e.what()
        << "); degrading: resuming from the stage '"
        << core::checkpoint_stage_name(last)
        << "' checkpoint with that rank's shard dropped\n";
    out << "degraded run: rank " << e.failed_rank()
        << " lost after checkpoint '" << core::checkpoint_stage_name(last)
        << "'; its shard's pairs are missing from the output\n";
    comm::World degraded_world(ranks);
    if (fault_plan) degraded_world.set_fault_plan(fault_plan);  // specs are one-shot
    core::PipelineConfig degraded_cfg = cfg;
    degraded_cfg.resume = true;
    degraded_cfg.degraded_ranks = {e.failed_rank()};
    result = core::run_pipeline(degraded_world, reads, degraded_cfg, truth);
  }

  print_counters(out, result.counters, ranks, cfg.stage5);
  if (result.eval_ran) print_eval(out, result.eval);

  // The cost model projects this run onto a modeled machine. On `local` it
  // would only restate the run just measured, so it is neither built nor
  // calibrated there.
  std::optional<netsim::TimingReport> report;
  if (modeled) {
    const netsim::Topology topo{ranks / ranks_per_node, ranks_per_node};
    report = result.evaluate(platform, topo);
    print_timings(out, *report, platform, topo);
  }

  obs::ProfileReport profile;
  if (result.span_trace) {
    profile = obs::build_profile(*result.span_trace);
    if (profile_report) obs::print_profile(out, profile);
  }

  // --- persist.
  const bool no_output = args.get_bool("no-output", false);
  if (!no_output) {
    const std::filesystem::path dir = args.get("out-dir", "dibella_out");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) throw Error("cannot create --out-dir " + dir.string() + ": " + ec.message());

    std::vector<std::string> extras = {kCountersFile};
    std::ostringstream paf;
    {
      // Stream the merged records (in-memory vector or spill k-way merge —
      // byte-identical either way) instead of requiring a resident vector.
      auto source = result.alignment_source();
      core::write_paf(paf, *source, reads, cfg.sgraph_fuzz);
    }
    write_file(dir / kAlignmentsFile, paf.str());
    {
      std::ostringstream counters;
      result.metrics.dump_tsv(counters);
      write_file(dir / kCountersFile, counters.str());
    }
    if (report) {
      write_file(dir / kTimingsFile, timings_tsv(*report));
      extras.push_back(kTimingsFile);
    }
    if (profile_report && result.span_trace) {
      std::ostringstream prof;
      obs::write_profile_tsv(prof, profile);
      // Wire-level exchange accounting rides along as a `wire` section:
      // schedule-dependent (chunking differs between overlapped and
      // bulk-synchronous runs), so it belongs here, not in counters.tsv.
      {
        std::ostringstream wire;
        result.wire_metrics.dump_tsv(wire);
        std::istringstream rows(wire.str());
        std::string row;
        while (std::getline(rows, row)) {
          if (row.empty() || row[0] == '#' || row == "counter\tvalue") continue;
          const auto tab = row.find('\t');
          prof << "wire\t" << row.substr(0, tab) << "\tvalue\t"
               << row.substr(tab + 1) << "\n";
        }
      }
      write_file(dir / kProfileFile, prof.str());
      extras.push_back(kProfileFile);
    }
    if (simulated) {
      // Echo the reads and their truth sidecar, so a later --input run on
      // this dataset can opt back into evaluation.
      write_file(dir / kReadsFile, io::to_fasta(reads));
      write_file(dir / kTruthFile, truth->to_tsv());
      extras.push_back(kReadsFile);
      extras.push_back(kTruthFile);
    }
    if (cfg.stage5) {
      std::ostringstream comp;
      sgraph::write_component_summary(comp, result.string_graph.layout);
      write_file(dir / kComponentsFile, comp.str());
      std::ostringstream unis;
      sgraph::write_unitig_table(unis, result.string_graph.layout);
      write_file(dir / kUnitigsFile, unis.str());
      extras.push_back(kComponentsFile);
      extras.push_back(kUnitigsFile);
    }
    if (result.eval_ran) {
      std::ostringstream ev;
      eval::write_eval_tsv(ev, result.eval);
      write_file(dir / kEvalFile, ev.str());
      extras.push_back(kEvalFile);
    }

    out << "\nwrote " << result.counters.alignments_reported << " alignments to "
        << (dir / kAlignmentsFile).string() << " (+";
    for (std::size_t i = 0; i < extras.size(); ++i) {
      out << (i ? ", " : " ") << extras[i];
    }
    out << ")\n";
  }
  // The GFA rides --out-dir by default but an explicit --gfa path is
  // honored even under --no-output (the quickstart's one-file ask).
  if (cfg.stage5 && (!no_output || args.has("gfa"))) {
    const std::filesystem::path gfa_path =
        args.has("gfa")
            ? std::filesystem::path(args.get("gfa", ""))
            : std::filesystem::path(args.get("out-dir", "dibella_out")) / kGfaFile;
    std::ostringstream gfa;
    sgraph::write_gfa(gfa, result.string_graph.surviving_edges, reads);
    write_file(gfa_path, gfa.str());
    out << "string graph: " << result.counters.sg_edges_surviving
        << " edges, " << result.counters.sg_unitigs << " unitigs in "
        << result.counters.sg_components << " components -> " << gfa_path.string()
        << "\n";
  }
  // Like --gfa, an explicit --trace path is honored even under --no-output.
  if (!trace_path.empty() && result.span_trace) {
    std::ostringstream json;
    obs::write_chrome_trace(json, *result.span_trace);
    write_file(trace_path, json.str());
    out << "trace: " << result.span_trace->ranks() << " rank timelines -> "
        << trace_path << " (open in ui.perfetto.dev)\n";
  }

  if (result.counters.alignments_reported == 0) {
    err << "warning: pipeline completed but reported zero alignments\n";
  }
  return kExitOk;
}

}  // namespace

const char* usage() { return kUsage; }

int run_driver(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err) {
  try {
    util::Args args(argc, argv);
    if (args.get_bool("help", false)) {
      out << kUsage;
      return kExitOk;
    }
    return run_checked(args, out, err);
  } catch (const UsageError& e) {
    err << "dibella: " << e.what() << "\n";
    return kExitUsageError;
  } catch (const comm::CommFailure& e) {
    err << "dibella: communication failure: " << e.what() << "\n";
    return kExitCommFailure;
  } catch (const std::exception& e) {
    err << "dibella: error: " << e.what() << "\n";
    return kExitRuntimeError;
  }
}

}  // namespace dibella::cli
