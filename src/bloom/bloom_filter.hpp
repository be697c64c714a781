#pragma once
/// \file bloom_filter.hpp
/// Classic bit-array Bloom filter with double hashing.
///
/// Pipeline stage 1 (§6) uses one partition of a *distributed* Bloom filter
/// per rank to identify singleton k-mers without storing the k-mer bag: a
/// k-mer inserted for the second time is (probably) a non-singleton. False
/// positives let a few singletons through — stage 2's exact counting removes
/// them ("remove singleton k-mers that were missed by the Bloom filter").
/// There are no false negatives, so no true non-singleton is ever lost.

#include <vector>

#include "util/common.hpp"

namespace dibella::bloom {

/// Bloom filter keyed by a pair of 64-bit hashes; the i-th probe position is
/// (h1 + i*h2) mod bits (Kirsch–Mitzenmacher double hashing).
class BloomFilter {
 public:
  /// Size the filter for `expected_items` insertions at `target_fpr` false
  /// positive rate (optimal bit count and hash count).
  BloomFilter(u64 expected_items, double target_fpr);

  void insert(u64 h1, u64 h2);
  bool contains(u64 h1, u64 h2) const;

  /// Insert and report whether the element was (apparently) present before —
  /// the primitive stage 1 is built on.
  bool test_and_insert(u64 h1, u64 h2);

  u64 bit_count() const { return bits_; }
  int hash_count() const { return hashes_; }

  /// Number of set bits (occupancy diagnostics).
  u64 popcount() const;

  /// Theoretical FPR after `items` distinct insertions.
  double theoretical_fpr(u64 items) const;

  /// Bytes of memory held by the bit array.
  u64 memory_bytes() const { return words_.size() * sizeof(u64); }

  static u64 optimal_bits(u64 n, double fpr);
  static int optimal_hashes(u64 bits, u64 n);

 private:
  u64 bit_index(u64 h1, u64 h2, int i) const {
    return (h1 + static_cast<u64>(i) * (h2 | 1)) % bits_;
  }

  u64 bits_;
  int hashes_;
  std::vector<u64> words_;
};

}  // namespace dibella::bloom
