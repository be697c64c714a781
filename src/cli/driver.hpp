#pragma once
/// \file driver.hpp
/// The `dibella` end-to-end pipeline driver: parse command-line options,
/// load FASTA/FASTQ input or simulate a preset dataset, run the four-stage
/// pipeline over an in-process SPMD World, and write the alignment records,
/// per-stage counters, and netsim cost-model report to an output directory.
///
/// The entry point is a plain function (not main) so the smoke tests can run
/// the driver in-process and inspect its exit code and outputs.

#include <iosfwd>

namespace dibella::cli {

/// Exit codes returned by run_driver (and thus by the dibella binary).
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntimeError = 1;
inline constexpr int kExitUsageError = 2;
/// A rank was lost or the exchange gave up: the world was poisoned and every
/// sibling unwound (comm::CommFailure). Distinct from 1 so harnesses can
/// tell "bad input" from "the distributed run itself died".
inline constexpr int kExitCommFailure = 3;

/// Filenames written inside --out-dir.
inline constexpr const char* kAlignmentsFile = "alignments.paf";
inline constexpr const char* kCountersFile = "counters.tsv";
inline constexpr const char* kTimingsFile = "timings.tsv";  ///< modeled --platform only
inline constexpr const char* kReadsFile = "reads.fasta";  ///< simulated runs only
inline constexpr const char* kTruthFile = "reads.truth.tsv";  ///< simulated runs only
inline constexpr const char* kGfaFile = "graph.gfa";      ///< stage 5 (default --gfa path)
inline constexpr const char* kComponentsFile = "components.tsv";  ///< stage 5
inline constexpr const char* kUnitigsFile = "unitigs.tsv";        ///< stage 5
inline constexpr const char* kEvalFile = "eval.tsv";      ///< --eval=on only
inline constexpr const char* kProfileFile = "profile.tsv";  ///< --profile-report only

/// Run the driver with the given argv. Progress and results go to `out`,
/// diagnostics to `err`. Never throws; failures map to the exit codes above.
int run_driver(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err);

/// The --help text.
const char* usage();

}  // namespace dibella::cli
