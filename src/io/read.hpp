#pragma once
/// \file read.hpp
/// The fundamental record of the pipeline: one sequencing read. Global read
/// IDs (gids) are dense 0..N-1 indices assigned in input order; the paper's
/// Algorithm 1 and the odd/even owner heuristic operate on these IDs.

#include <string>

#include "util/common.hpp"

namespace dibella::io {

/// A single long read.
struct Read {
  u64 gid = 0;        ///< dense global id (input order)
  std::string name;   ///< FASTQ/FASTA header (without '@'/'>')
  std::string seq;    ///< base sequence
  std::string qual;   ///< per-base quality string (may be empty for FASTA)
};

}  // namespace dibella::io
