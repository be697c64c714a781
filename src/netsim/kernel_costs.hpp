#pragma once
/// \file kernel_costs.hpp
/// Per-unit kernel prices that turn a trace's work units into seconds.
///
/// Why this exists: pipeline compute segments at high simulated rank counts
/// are sub-millisecond, and sandboxed/virtualized kernels often advance the
/// per-thread CPU clock in multi-millisecond ticks, making direct segment
/// timing pure noise. Instead, every stage records its *work units* exactly
/// (netsim::Work: k-mer windows parsed, Bloom insertions, table insertions,
/// DP cells, bytes copied, ...) and the cost model prices them with per-unit
/// costs measured by long (>= 100 ms) single-threaded calibration loops
/// against the monotonic clock. Modeled compute is therefore deterministic
/// in the work done while staying tied to the host's kernel speeds, and
/// data-dependent behaviour (x-drop early exit, read-length variance) is
/// preserved exactly because the unit *counts* are exact.
///
/// Calibration runs only when something prices a trace: a modeled
/// `--platform` report, the paper-figure benches, or the cross-platform
/// example. A pipeline run alone never calibrates.

#include "netsim/rank_trace.hpp"
#include "util/common.hpp"

namespace dibella::netsim {

/// Seconds per unit of each kernel; one price per field of Work.
struct KernelCosts {
  double parse_per_kmer = 0.0;      ///< rolling canonical parse + buffer push
  double bloom_insert = 0.0;        ///< Bloom filter test_and_insert
  double table_insert = 0.0;        ///< hash table insert/add_occurrence
  double table_traverse = 0.0;      ///< per-key traversal (overlap stage)
  double pair_consolidate = 0.0;    ///< per-task sort-then-group consolidation
  double xdrop_per_cell = 0.0;      ///< per DP cell of x-drop extension
  double per_byte_copy = 0.0;       ///< bulk byte marshalling
  double graph_probe = 0.0;         ///< per witness lookup of transitive reduction

  /// Modeled seconds of `work`: the dot product of units and prices.
  double seconds(const Work& work) const;

  /// The process-wide instance calibrated on this host. Measured on first
  /// use: eight loops of >= 0.1 s each, about 0.85 s once per process.
  static const KernelCosts& get();
};

}  // namespace dibella::netsim
