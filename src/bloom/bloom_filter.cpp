#include "bloom/bloom_filter.hpp"

#include <bit>
#include <cmath>

namespace dibella::bloom {

u64 BloomFilter::optimal_bits(u64 n, double fpr) {
  DIBELLA_CHECK(fpr > 0.0 && fpr < 1.0, "fpr must be in (0,1)");
  double bits = -static_cast<double>(std::max<u64>(n, 1)) * std::log(fpr) /
                (std::log(2.0) * std::log(2.0));
  return std::max<u64>(64, static_cast<u64>(bits) + 1);
}

int BloomFilter::optimal_hashes(u64 bits, u64 n) {
  double k = std::log(2.0) * static_cast<double>(bits) /
             static_cast<double>(std::max<u64>(n, 1));
  return std::max(1, std::min(16, static_cast<int>(k + 0.5)));
}

BloomFilter::BloomFilter(u64 expected_items, double target_fpr)
    : bits_(optimal_bits(expected_items, target_fpr)),
      hashes_(optimal_hashes(bits_, expected_items)),
      words_((bits_ + 63) / 64, 0) {}

void BloomFilter::insert(u64 h1, u64 h2) {
  for (int i = 0; i < hashes_; ++i) {
    u64 b = bit_index(h1, h2, i);
    words_[b / 64] |= u64{1} << (b % 64);
  }
}

bool BloomFilter::contains(u64 h1, u64 h2) const {
  for (int i = 0; i < hashes_; ++i) {
    u64 b = bit_index(h1, h2, i);
    if (!(words_[b / 64] & (u64{1} << (b % 64)))) return false;
  }
  return true;
}

bool BloomFilter::test_and_insert(u64 h1, u64 h2) {
  bool present = true;
  for (int i = 0; i < hashes_; ++i) {
    u64 b = bit_index(h1, h2, i);
    u64& word = words_[b / 64];
    u64 mask = u64{1} << (b % 64);
    if (!(word & mask)) {
      present = false;
      word |= mask;
    }
  }
  return present;
}

u64 BloomFilter::popcount() const {
  u64 n = 0;
  for (u64 w : words_) n += static_cast<u64>(std::popcount(w));
  return n;
}

double BloomFilter::theoretical_fpr(u64 items) const {
  double frac = 1.0 - std::exp(-static_cast<double>(hashes_) *
                               static_cast<double>(items) / static_cast<double>(bits_));
  return std::pow(frac, hashes_);
}

}  // namespace dibella::bloom
