// End-to-end smoke tests for the `dibella` driver CLI: run the real driver
// entry point on a small simulated genome, assert a clean exit, nonzero
// reported alignments, and that every output file parses back.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "io/fastx.hpp"
#include "io/truth.hpp"

namespace fs = std::filesystem;
using dibella::u64;

namespace {

struct DriverResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

DriverResult run_driver(const std::vector<std::string>& options) {
  std::vector<const char*> argv = {"dibella"};
  for (const auto& opt : options) argv.push_back(opt.c_str());
  std::ostringstream out, err;
  DriverResult r;
  r.exit_code = dibella::cli::run_driver(static_cast<int>(argv.size()),
                                         argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::istringstream is(line);
  std::string f;
  while (std::getline(is, f, sep)) fields.push_back(f);
  return fields;
}

std::vector<std::string> nonempty_lines(const std::string& data) {
  std::vector<std::string> lines;
  for (auto& l : split(data, '\n')) {
    if (!l.empty()) lines.push_back(l);
  }
  return lines;
}

/// Drop `#`-prefixed schema/comment lines (schema 2 opens with `#schema=2`;
/// the loader stays tolerant of the old headerless form).
std::vector<std::string> data_lines(const std::string& data) {
  std::vector<std::string> lines;
  for (auto& l : nonempty_lines(data)) {
    if (l[0] != '#') lines.push_back(l);
  }
  return lines;
}

/// Parse counters.tsv back into a map, checking its header and numeracy.
std::map<std::string, u64> parse_counters(const std::string& data) {
  auto lines = data_lines(data);
  EXPECT_GT(lines.size(), 1u);
  EXPECT_EQ(lines[0], "counter\tvalue");
  std::map<std::string, u64> counters;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto fields = split(lines[i], '\t');
    EXPECT_EQ(fields.size(), 2u) << lines[i];
    counters[fields[0]] = std::strtoull(fields[1].c_str(), nullptr, 10);
  }
  return counters;
}

class CliSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each discovered test as its own
    // process, so a shared path would race under `ctest -j`.
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("dibella_cli_smoke_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

}  // namespace

TEST_F(CliSmoke, TinySimulatedGenomeEndToEnd) {
  DriverResult r = run_driver(
      {"--preset=tiny", "--ranks=2", "--out-dir=" + dir_.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;

  // Counters parse back and report nonzero alignments.
  auto counters = parse_counters(
      dibella::io::load_file((dir_ / dibella::cli::kCountersFile).string()));
  ASSERT_TRUE(counters.count("alignments_reported"));
  EXPECT_GT(counters.at("alignments_reported"), 0u);
  EXPECT_GT(counters.at("kmers_parsed"), 0u);
  EXPECT_EQ(counters.at("ranks"), 2u);

  // The PAF output parses back: 12 standard fields plus the ol:i: and tp:A:
  // string-graph tags per record, count matching the reported-alignments
  // counter.
  auto paf_lines = nonempty_lines(
      dibella::io::load_file((dir_ / dibella::cli::kAlignmentsFile).string()));
  EXPECT_EQ(paf_lines.size(), counters.at("alignments_reported"));
  for (const auto& line : paf_lines) {
    auto fields = split(line, '\t');
    ASSERT_EQ(fields.size(), 14u) << line;
    EXPECT_TRUE(fields[4] == "+" || fields[4] == "-") << line;
    u64 qlen = std::strtoull(fields[1].c_str(), nullptr, 10);
    u64 qend = std::strtoull(fields[3].c_str(), nullptr, 10);
    EXPECT_LE(qend, qlen) << line;
    EXPECT_EQ(fields[12].rfind("ol:i:", 0), 0u) << line;
    EXPECT_EQ(fields[13].rfind("tp:A:", 0), 0u) << line;
  }

  // The echoed simulated reads parse back as FASTA.
  auto reads = dibella::io::parse_fasta(
      dibella::io::load_file((dir_ / dibella::cli::kReadsFile).string()));
  EXPECT_GT(reads.size(), 0u);

  // The human-readable report made it to stdout. The default `local`
  // platform builds no cost model: no timing table, no timings.tsv.
  EXPECT_NE(r.out.find("diBELLA pipeline on 2 ranks"), std::string::npos);
  EXPECT_EQ(r.out.find("cost model:"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir_ / dibella::cli::kTimingsFile));
}

TEST_F(CliSmoke, ModeledPlatformWritesCostModelReport) {
  DriverResult r = run_driver(
      {"--preset=tiny", "--ranks=2", "--platform=cori", "--out-dir=" + dir_.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;

  // The cost-model report has the four pipeline stages plus a total row;
  // schema 2 prepends a `#schema=` version line the loader skips.
  const std::string timings_raw =
      dibella::io::load_file((dir_ / dibella::cli::kTimingsFile).string());
  EXPECT_EQ(timings_raw.rfind("#schema=2\n", 0), 0u);
  auto timing_lines = data_lines(timings_raw);
  ASSERT_GT(timing_lines.size(), 2u);
  EXPECT_NE(timing_lines[0].find("stage\tcompute_virtual_s"), std::string::npos);
  EXPECT_EQ(split(timing_lines.back(), '\t')[0], "total");
  double total_virtual = std::strtod(split(timing_lines.back(), '\t')[3].c_str(), nullptr);
  EXPECT_GT(total_virtual, 0.0);

  EXPECT_NE(r.out.find("cost model:"), std::string::npos);
}

TEST_F(CliSmoke, FastaInputRoundTrip) {
  // Feed the reads a simulated run wrote back in as --input: same alignments.
  DriverResult sim = run_driver(
      {"--preset=tiny", "--ranks=2", "--out-dir=" + dir_.string()});
  ASSERT_EQ(sim.exit_code, dibella::cli::kExitOk) << sim.err;
  std::string paf_sim =
      dibella::io::load_file((dir_ / dibella::cli::kAlignmentsFile).string());

  // Pin the data-model inputs to the tiny preset's values: the auto repeat
  // ceiling m depends on (coverage, error rate), and presets default to
  // --minimizer-w=10 while --input stays dense — a bare FASTA file carries
  // neither.
  fs::path dir2 = dir_ / "from_fasta";
  DriverResult loaded = run_driver(
      {"--input=" + (dir_ / dibella::cli::kReadsFile).string(), "--ranks=3",
       "--coverage=20", "--error-rate=0.12", "--minimizer-w=10",
       "--out-dir=" + dir2.string()});
  ASSERT_EQ(loaded.exit_code, dibella::cli::kExitOk) << loaded.err;

  // Alignment output is deterministic in (reads, config) and independent of
  // the rank count (the pipeline's core integration property).
  std::string paf_loaded =
      dibella::io::load_file((dir2 / dibella::cli::kAlignmentsFile).string());
  EXPECT_EQ(paf_sim, paf_loaded);
}

TEST_F(CliSmoke, NoOutputFlagWritesNothing) {
  DriverResult r = run_driver(
      {"--preset=tiny", "--ranks=2", "--no-output", "--out-dir=" + dir_.string()});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  EXPECT_FALSE(fs::exists(dir_));
}

TEST(CliUsage, HelpExitsCleanly) {
  DriverResult r = run_driver({"--help"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitOk);
  EXPECT_NE(r.out.find("usage: dibella"), std::string::npos);
}

TEST(CliUsage, UnknownOptionIsAUsageError) {
  DriverResult r = run_driver({"--rank=8"});  // typo for --ranks
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("--rank"), std::string::npos);
}

TEST(CliUsage, BadPresetIsAUsageError) {
  DriverResult r = run_driver({"--preset=nope"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
}

TEST(CliUsage, MissingInputFileIsARuntimeError) {
  DriverResult r = run_driver({"--input=/nonexistent/reads.fq"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitRuntimeError);
  EXPECT_FALSE(r.err.empty());
}

TEST(CliUsage, IndivisibleRanksPerNodeIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=4", "--ranks-per-node=3"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
}

TEST(CliUsage, DefaultRanksPerNodeDividesAnyRankCount) {
  // --ranks=6 with no --ranks-per-node must not trip the divisibility check.
  // The resolved topology shows in the cost-model table's title.
  DriverResult r =
      run_driver({"--preset=tiny", "--ranks=6", "--platform=cori", "--no-output"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  EXPECT_NE(r.out.find("3 ranks/node"), std::string::npos) << r.out;
}

TEST(CliUsage, MalformedNumericValueIsAUsageError) {
  EXPECT_EQ(run_driver({"--preset=tiny", "--ranks=abc"}).exit_code,
            dibella::cli::kExitUsageError);
  EXPECT_EQ(run_driver({"--preset=tiny", "--scale=oops"}).exit_code,
            dibella::cli::kExitUsageError);
  EXPECT_EQ(run_driver({"--preset=tiny", "--k=1x7"}).exit_code,
            dibella::cli::kExitUsageError);
}

TEST_F(CliSmoke, OverlapCommSchedulesProduceIdenticalOutputs) {
  // --overlap-comm=on vs off: identical alignments.paf and counters.tsv,
  // and a modeled platform's timings.tsv carries the exposed/hidden
  // exchange columns.
  fs::path on_dir = dir_ / "on";
  fs::path off_dir = dir_ / "off";
  DriverResult on = run_driver({"--preset=tiny", "--ranks=3", "--overlap-comm=on",
                                "--platform=cori", "--out-dir=" + on_dir.string()});
  ASSERT_EQ(on.exit_code, dibella::cli::kExitOk) << on.err;
  DriverResult off = run_driver({"--preset=tiny", "--ranks=3", "--overlap-comm=off",
                                 "--platform=cori", "--out-dir=" + off_dir.string()});
  ASSERT_EQ(off.exit_code, dibella::cli::kExitOk) << off.err;

  EXPECT_EQ(dibella::io::load_file((on_dir / dibella::cli::kAlignmentsFile).string()),
            dibella::io::load_file((off_dir / dibella::cli::kAlignmentsFile).string()));
  EXPECT_EQ(dibella::io::load_file((on_dir / dibella::cli::kCountersFile).string()),
            dibella::io::load_file((off_dir / dibella::cli::kCountersFile).string()));

  auto timings = data_lines(
      dibella::io::load_file((on_dir / dibella::cli::kTimingsFile).string()));
  ASSERT_FALSE(timings.empty());
  EXPECT_NE(timings[0].find("exchange_exposed_s"), std::string::npos);
  EXPECT_NE(timings[0].find("exchange_hidden_s"), std::string::npos);
}

TEST_F(CliSmoke, GfaLinksCrossCheckAgainstPaf) {
  // Every GFA L line must be derivable from alignments.paf: the read pair
  // appears there as a dovetail (tp:A:D) with the same overlap length
  // (ol:i:), and the S-line count matches the surviving-edge vertex set.
  DriverResult r = run_driver(
      {"--preset=tiny", "--ranks=3", "--out-dir=" + dir_.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;

  // Index PAF dovetail records by unordered name pair -> overlap length.
  std::map<std::pair<std::string, std::string>, u64> paf_dovetails;
  for (const auto& line : nonempty_lines(dibella::io::load_file(
           (dir_ / dibella::cli::kAlignmentsFile).string()))) {
    auto f = split(line, '\t');
    ASSERT_EQ(f.size(), 14u) << line;
    if (f[13] != "tp:A:D") continue;
    auto key = std::minmax(f[0], f[5]);
    paf_dovetails[{key.first, key.second}] =
        std::strtoull(f[12].c_str() + 5, nullptr, 10);
  }
  ASSERT_FALSE(paf_dovetails.empty());

  auto counters = parse_counters(
      dibella::io::load_file((dir_ / dibella::cli::kCountersFile).string()));
  std::size_t s_lines = 0, l_lines = 0;
  for (const auto& line : nonempty_lines(
           dibella::io::load_file((dir_ / "graph.gfa").string()))) {
    auto f = split(line, '\t');
    if (f[0] == "S") {
      ++s_lines;
      EXPECT_EQ(f.size(), 4u) << line;
      continue;
    }
    if (f[0] != "L") continue;
    ++l_lines;
    ASSERT_EQ(f.size(), 6u) << line;
    EXPECT_TRUE(f[2] == "+" || f[2] == "-") << line;
    EXPECT_TRUE(f[4] == "+" || f[4] == "-") << line;
    auto key = std::minmax(f[1], f[3]);
    auto it = paf_dovetails.find({key.first, key.second});
    ASSERT_TRUE(it != paf_dovetails.end()) << "L line without PAF dovetail: " << line;
    EXPECT_EQ(f[5], std::to_string(it->second) + "M") << line;
  }
  EXPECT_EQ(l_lines, counters.at("sg_edges_surviving"));
  EXPECT_GT(s_lines, 0u);
  EXPECT_GT(counters.at("sg_unitigs"), 0u);
  EXPECT_NE(r.out.find("string graph:"), std::string::npos);
}

TEST_F(CliSmoke, Stage5OffSkipsGraphOutputs) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--stage5=off",
                               "--out-dir=" + dir_.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  EXPECT_FALSE(fs::exists(dir_ / "graph.gfa"));
  EXPECT_FALSE(fs::exists(dir_ / dibella::cli::kComponentsFile));
  auto counters = parse_counters(
      dibella::io::load_file((dir_ / dibella::cli::kCountersFile).string()));
  EXPECT_EQ(counters.at("sg_dovetail_edges"), 0u);
}

TEST_F(CliSmoke, ExplicitGfaPathHonoredWithNoOutput) {
  fs::create_directories(dir_);
  fs::path gfa = dir_ / "custom.gfa";
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--no-output",
                               "--gfa=" + gfa.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  EXPECT_TRUE(fs::exists(gfa));
  EXPECT_FALSE(fs::exists(dir_ / dibella::cli::kCountersFile));
}

TEST(CliUsage, BadStage5ValueIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--stage5=maybe"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("unknown --stage5=maybe (expected on|off)"), std::string::npos)
      << r.err;
}

TEST(CliUsage, GfaWithoutStage5IsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--stage5=off", "--gfa=/tmp/x.gfa"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("gfa"), std::string::npos);
}

TEST(CliUsage, BadOverlapCommValueIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--overlap-comm=maybe"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("unknown --overlap-comm=maybe (expected on|off)"), std::string::npos)
      << r.err;
}

// --- ground-truth evaluation --------------------------------------------------

TEST_F(CliSmoke, EvalTsvWrittenAndWellFormed) {
  // Simulated presets default to --eval=on: eval.tsv appears next to the
  // PAF with the 3-column schema and sane ratio values.
  DriverResult r = run_driver(
      {"--preset=tiny", "--ranks=2", "--out-dir=" + dir_.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  EXPECT_NE(r.out.find("ground-truth evaluation"), std::string::npos);

  auto lines = nonempty_lines(
      dibella::io::load_file((dir_ / dibella::cli::kEvalFile).string()));
  ASSERT_GT(lines.size(), 10u);
  EXPECT_EQ(lines[0], "section\tmetric\tvalue");
  std::map<std::string, std::string> overlap_rows;
  bool saw_unitig_rows = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto f = split(lines[i], '\t');
    ASSERT_EQ(f.size(), 3u) << lines[i];
    if (f[0] == "overlap") overlap_rows[f[1]] = f[2];
    if (f[0] == "unitig") saw_unitig_rows = true;
  }
  for (const char* metric : {"recall", "precision", "f1"}) {
    ASSERT_TRUE(overlap_rows.count(metric)) << metric;
    double v = std::strtod(overlap_rows.at(metric).c_str(), nullptr);
    EXPECT_GT(v, 0.0) << metric;
    EXPECT_LE(v, 1.0) << metric;
  }
  EXPECT_GT(std::strtoull(overlap_rows.at("true_positives").c_str(), nullptr, 10), 0u);
  EXPECT_TRUE(saw_unitig_rows);  // stage 5 defaults on

  // The truth sidecar rides along for simulated runs, loadable as-is.
  auto truth = dibella::io::TruthTable::load_tsv(
      (dir_ / dibella::cli::kTruthFile).string());
  auto reads = dibella::io::parse_fasta(
      dibella::io::load_file((dir_ / dibella::cli::kReadsFile).string()));
  EXPECT_EQ(truth.size(), reads.size());

  // stage 5 also exports the unitig chain table (the coordinate hook).
  auto unitig_lines = nonempty_lines(
      dibella::io::load_file((dir_ / dibella::cli::kUnitigsFile).string()));
  ASSERT_FALSE(unitig_lines.empty());
  EXPECT_EQ(unitig_lines[0], "unitig\tcircular\treads\tgids");
}

TEST_F(CliSmoke, EvalOffWritesNoEvalTsv) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--eval=off",
                               "--out-dir=" + dir_.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  EXPECT_FALSE(fs::exists(dir_ / dibella::cli::kEvalFile));
  EXPECT_EQ(r.out.find("ground-truth evaluation"), std::string::npos);
  // The sidecar still rides along: later --input runs can opt back in.
  EXPECT_TRUE(fs::exists(dir_ / dibella::cli::kTruthFile));
}

TEST_F(CliSmoke, EvalOnFileInputWithoutTruthFailsCleanly) {
  fs::create_directories(dir_);
  fs::path fasta = dir_ / "bare.fa";
  std::ofstream(fasta) << ">r0\nACGTACGTACGTACGTACGTACGT\n>r1\nTTTTACGTACGTACGTACGT\n";
  DriverResult r = run_driver({"--input=" + fasta.string(), "--eval=on",
                               "--ranks=1", "--no-output"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("truth"), std::string::npos) << r.err;
}

TEST_F(CliSmoke, EvalRoundTripsThroughTruthSidecar) {
  // A simulated run writes reads.fasta + reads.truth.tsv; feeding those back
  // via --input must reproduce eval.tsv byte for byte (different rank count
  // and schedule included — the quality pin).
  DriverResult sim = run_driver(
      {"--preset=tiny", "--ranks=2", "--out-dir=" + dir_.string()});
  ASSERT_EQ(sim.exit_code, dibella::cli::kExitOk) << sim.err;
  std::string eval_sim =
      dibella::io::load_file((dir_ / dibella::cli::kEvalFile).string());

  fs::path dir2 = dir_ / "from_fasta";
  DriverResult loaded = run_driver(
      {"--input=" + (dir_ / dibella::cli::kReadsFile).string(), "--eval=on",
       "--ranks=5", "--overlap-comm=off", "--coverage=20", "--error-rate=0.12",
       "--minimizer-w=10", "--eval-min-overlap=500",
       "--out-dir=" + dir2.string()});
  ASSERT_EQ(loaded.exit_code, dibella::cli::kExitOk) << loaded.err;
  EXPECT_NE(loaded.out.find("loaded ground truth"), std::string::npos);
  EXPECT_EQ(dibella::io::load_file((dir2 / dibella::cli::kEvalFile).string()),
            eval_sim);
}

TEST(CliUsage, BadMinimizerWidthIsAUsageError) {
  for (const char* bad : {"--minimizer-w=-1", "--minimizer-w=256",
                          "--minimizer-w=abc"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
    EXPECT_NE(r.err.find("minimizer-w"), std::string::npos) << bad;
  }
}

TEST(CliUsage, SyncmerNeedsACompatibleWindow) {
  // s = k - w + 1 must leave 2 <= w <= k-1; the tiny preset's k is 17.
  DriverResult dense = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                                   "--minimizer-w=0", "--syncmer=on"});
  EXPECT_EQ(dense.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(dense.err.find("syncmer"), std::string::npos);
  DriverResult wide = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                                  "--minimizer-w=17", "--syncmer=on"});
  EXPECT_EQ(wide.exit_code, dibella::cli::kExitUsageError);
  DriverResult bad = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                                 "--syncmer=maybe"});
  EXPECT_EQ(bad.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(bad.err.find("unknown --syncmer=maybe (expected on|off)"), std::string::npos)
      << bad.err;
}

TEST(CliUsage, BadChainValueIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--chain=maybe"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("unknown --chain=maybe (expected on|off)"), std::string::npos)
      << r.err;
}

TEST_F(CliSmoke, MinimizerModeWritesSketchCounters) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--minimizer-w=10",
                               "--out-dir=" + dir_.string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  const std::string counters =
      dibella::io::load_file((dir_ / dibella::cli::kCountersFile).string());
  // Sampling really happened: kept strictly below windows scanned, and the
  // achieved density lands in the right decade (~2/(w+1) = 181818 ppm).
  auto value_of = [&](const std::string& key) -> long long {
    auto pos = counters.find(key + "\t");
    EXPECT_NE(pos, std::string::npos) << key;
    if (pos == std::string::npos) return -1;
    return std::stoll(counters.substr(pos + key.size() + 1));
  };
  const long long windows = value_of("sketch_windows");
  const long long kept = value_of("sketch_seeds_kept");
  const long long ppm = value_of("sketch_density_ppm");
  EXPECT_GT(windows, 0);
  EXPECT_GT(kept, 0);
  EXPECT_LT(kept * 3, windows);
  EXPECT_GT(ppm, 100'000);
  EXPECT_LT(ppm, 300'000);
  EXPECT_GE(value_of("chain_anchors"), 0);
}

TEST(CliUsage, BadXdropIsAUsageError) {
  // Negative values, values past the kernel's 10^8 cap, and values that
  // used to wrap when narrowed to int (4294967321 wrapped to 25).
  for (const char* bad : {"--xdrop=-1", "--xdrop=-5", "--xdrop=100000001",
                          "--xdrop=4294967321"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
    EXPECT_NE(r.err.find("xdrop"), std::string::npos) << bad;
  }
  DriverResult zero = run_driver({"--preset=tiny", "--ranks=1", "--no-output", "--xdrop=0"});
  EXPECT_EQ(zero.exit_code, dibella::cli::kExitOk) << zero.err;
}

TEST(CliUsage, MinScoreMustFitAnInt) {
  for (const char* bad : {"--min-score=2147483648", "--min-score=-2147483649",
                          "--min-score=4294967296"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
    EXPECT_NE(r.err.find("min-score"), std::string::npos) << bad;
  }
  DriverResult lowest = run_driver(
      {"--preset=tiny", "--ranks=1", "--no-output", "--min-score=-2147483648"});
  EXPECT_EQ(lowest.exit_code, dibella::cli::kExitOk) << lowest.err;
}

TEST(CliUsage, IntegerFlagsThatWouldWrapAreUsageErrors) {
  // Each value used to be narrowed by a bare cast and run: --k=4294967313
  // as k = 17, --min-kmer-count=-1 as 4294967295, --ranks=4294967297 as one
  // rank, --blocks=4294967298 as two blocks. The --ranks values are chosen
  // to narrow to a small count, so a regression runs one rank, not billions.
  for (const char* bad :
       {"--k=4294967313", "--k=0", "--k=33", "--min-kmer-count=-1",
        "--max-kmer-count=4294967296", "--ranks=4294967297", "--ranks-per-node=4294967297",
        "--blocks=4294967298", "--min-overlap-score=2147483648"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
    const std::string flag = std::string(bad).substr(0, std::string(bad).find('='));
    EXPECT_NE(r.err.find(flag), std::string::npos) << bad << ": " << r.err;
  }
  DriverResult spacing = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                                     "--seed-policy=spaced", "--spacing=-1"});
  EXPECT_EQ(spacing.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(spacing.err.find("--spacing"), std::string::npos) << spacing.err;
}

TEST(CliUsage, IntegerOverflowIsAUsageError) {
  // strtoll saturates and sets ERANGE past the int64 range; the saturated
  // value must not be taken (--k=99999999999999999999 used to exit 1 from
  // deep in the k-mer parser, --eval-min-overlap ran with 2^63 - 1, and
  // --min-overlap-score ran with -1).
  for (const char* bad :
       {"--k=99999999999999999999", "--eval-min-overlap=99999999999999999999",
        "--min-overlap-score=99999999999999999999"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
  }
}

TEST(CliUsage, FloatFlagsOutsideTheirRangeAreUsageErrors) {
  // Each value used to run or fail deep in the pipeline: --coverage=inf ran
  // with m = 2, --scale=nan passed the (0, 1] check because NaN compares
  // false, and the rest exited 1 from an internal check. --scale is tested
  // only on the tiny preset, which ignores it.
  for (const char* bad :
       {"--coverage=inf", "--coverage=1e999", "--coverage=-3", "--bloom-fpr=0",
        "--bloom-fpr=1.5", "--bloom-fpr=nan", "--error-rate=2", "--error-rate=1",
        "--scale=nan"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
    const std::string flag = std::string(bad).substr(0, std::string(bad).find('='));
    EXPECT_NE(r.err.find(flag), std::string::npos) << bad << ": " << r.err;
  }
  // The closed ends of [0, 1) and (0, 1] are valid values.
  for (const char* edge : {"--error-rate=0", "--scale=1"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output", edge});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitOk) << edge << ": " << r.err;
  }
}

TEST(CliUsage, BadEvalValueIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--eval=maybe"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("unknown --eval=maybe (expected on|off)"), std::string::npos)
      << r.err;
}

TEST(CliUsage, TruthWithPresetIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--truth=/tmp/nope.tsv",
                               "--no-output"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("truth"), std::string::npos);
}

TEST_F(CliSmoke, BlocksModeOutputsByteIdenticalToInMemory) {
  // The out-of-core contract at the driver level: --blocks=4 with a memory
  // budget writes the very same alignments.paf, graph.gfa, and eval.tsv as
  // the default in-memory run (this mirrors the CI blocks-mode smoke job).
  std::vector<std::string> common = {"--preset=tiny", "--ranks=3",
                                     "--stage5=on", "--eval=on"};

  auto in_mem = common;
  in_mem.push_back("--out-dir=" + (dir_ / "in_mem").string());
  DriverResult a = run_driver(in_mem);
  ASSERT_EQ(a.exit_code, dibella::cli::kExitOk) << a.err;

  auto blocked = common;
  blocked.push_back("--blocks=4");
  blocked.push_back("--memory-budget=64M");
  blocked.push_back("--out-dir=" + (dir_ / "blocked").string());
  DriverResult b = run_driver(blocked);
  ASSERT_EQ(b.exit_code, dibella::cli::kExitOk) << b.err;
  EXPECT_NE(b.out.find("blocks=4"), std::string::npos);

  for (const char* file : {dibella::cli::kAlignmentsFile, dibella::cli::kGfaFile,
                           dibella::cli::kEvalFile}) {
    EXPECT_EQ(dibella::io::load_file((dir_ / "in_mem" / file).string()),
              dibella::io::load_file((dir_ / "blocked" / file).string()))
        << file;
  }

  // Block mode surfaces the out-of-core telemetry rows; both modes report
  // peak residency, and packing lowers it.
  auto cm = parse_counters(
      dibella::io::load_file((dir_ / "in_mem" / dibella::cli::kCountersFile).string()));
  auto cb = parse_counters(
      dibella::io::load_file((dir_ / "blocked" / dibella::cli::kCountersFile).string()));
  EXPECT_EQ(cm.at("packed_read_bytes"), 0u);
  EXPECT_EQ(cm.at("spill_bytes"), 0u);
  EXPECT_GT(cb.at("packed_read_bytes"), 0u);
  EXPECT_GT(cb.at("spill_bytes"), 0u);
  EXPECT_GT(cb.at("spill_runs"), 0u);
  EXPECT_GT(cb.at("block_loads"), 0u);
  EXPECT_GT(cm.at("peak_resident_read_bytes"), 0u);
  EXPECT_LT(cb.at("peak_resident_read_bytes"), cm.at("peak_resident_read_bytes"));
}

TEST(CliUsage, BlocksAndBudgetSizesParse) {
  // Bare numbers and K/M/G suffixes both work (smoke: accepted and echoed).
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--blocks=2", "--memory-budget=65536"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  EXPECT_NE(r.out.find("blocks=2"), std::string::npos);
}

TEST(CliUsage, BadBlocksValueIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--blocks=0"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("blocks"), std::string::npos);
}

TEST(CliUsage, MemoryBudgetWithoutBlocksIsAUsageError) {
  // A budget is meaningless on the in-memory path: nothing can be evicted.
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--memory-budget=64M"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("memory-budget"), std::string::npos);
}

TEST(CliUsage, MalformedMemoryBudgetIsAUsageError) {
  // A sign or a size past 2^64 - 1 used to wrap silently (-1 ran as an
  // unlimited budget, 17179869184G as none).
  for (const char* bad : {"--memory-budget=", "--memory-budget=M", "--memory-budget=12Q",
                          "--memory-budget=-1", "--memory-budget=99999999999999999999",
                          "--memory-budget=17179869184G"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                                 "--blocks=2", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
    EXPECT_NE(r.err.find("memory-budget"), std::string::npos) << bad;
  }
}

TEST_F(CliSmoke, SpillDirIsUsedAndCleaned) {
  fs::path spill_parent = dir_ / "spill";
  fs::create_directories(spill_parent);
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--blocks=2",
                               "--spill-dir=" + spill_parent.string(),
                               "--out-dir=" + (dir_ / "out").string()});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk) << r.err;
  // The per-run dibella-spill-* directory lived under --spill-dir and was
  // removed when the run finished.
  EXPECT_TRUE(fs::exists(spill_parent));
  EXPECT_TRUE(fs::is_empty(spill_parent));
}

TEST(CliUsage, SpillDirWithoutBlocksIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--spill-dir=/tmp"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("spill-dir"), std::string::npos);
}

// --- fault tolerance ----------------------------------------------------------

TEST(CliExitCodes, UsageRuntimeAndPoisonedAreDistinct) {
  // The driver's exit-code contract: 2 = usage, 1 = runtime, 3 = the
  // distributed run itself died (world poisoned). Harnesses branch on these.
  EXPECT_EQ(run_driver({"--rank=8"}).exit_code, dibella::cli::kExitUsageError);
  EXPECT_EQ(run_driver({"--input=/nonexistent/reads.fq"}).exit_code,
            dibella::cli::kExitRuntimeError);
  DriverResult poisoned = run_driver({"--preset=tiny", "--ranks=2", "--no-output",
                                      "--inject-fault=abort@bloom:0:1"});
  EXPECT_EQ(poisoned.exit_code, dibella::cli::kExitCommFailure);
  EXPECT_NE(poisoned.err.find("communication failure"), std::string::npos)
      << poisoned.err;
  EXPECT_NE(poisoned.err.find("injected rank abort"), std::string::npos)
      << poisoned.err;
}

TEST(CliUsage, ResumeWithoutCheckpointDirIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=1", "--no-output",
                               "--resume"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("checkpoint-dir"), std::string::npos);
}

TEST(CliUsage, DegradeWithoutCheckpointDirIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--no-output",
                               "--on-rank-failure=degrade"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("checkpoint-dir"), std::string::npos);
}

TEST(CliUsage, BadOnRankFailureValueIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--no-output",
                               "--on-rank-failure=retry"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("on-rank-failure"), std::string::npos);
}

TEST(CliUsage, MalformedInjectFaultIsAUsageError) {
  for (const char* bad : {"--inject-fault=drop", "--inject-fault=zap@bloom:0",
                          "--inject-fault=drop@nowhere:0",
                          "--inject-fault=drop@bloom:x"}) {
    DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--no-output", bad});
    EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError) << bad;
    EXPECT_NE(r.err.find("inject-fault"), std::string::npos) << r.err;
  }
}

TEST(CliUsage, InjectFaultRankOutOfRangeIsAUsageError) {
  DriverResult r = run_driver({"--preset=tiny", "--ranks=2", "--no-output",
                               "--inject-fault=abort@bloom:0:5"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitUsageError);
  EXPECT_NE(r.err.find("rank 5"), std::string::npos) << r.err;
}

TEST(CliUsage, FaultToleranceFlagsAreDocumented) {
  DriverResult r = run_driver({"--help"});
  ASSERT_EQ(r.exit_code, dibella::cli::kExitOk);
  for (const char* needle : {"--checkpoint-dir", "--resume", "--on-rank-failure",
                             "--inject-fault", "exit codes:"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }
}
