#include "util/stats.hpp"

#include <functional>
#include <numeric>

namespace dibella::util {

double load_imbalance(const std::vector<double>& per_rank) {
  if (per_rank.empty()) return 1.0;
  double mx = vec_max(per_rank);
  double avg = std::accumulate(per_rank.begin(), per_rank.end(), 0.0) /
               static_cast<double>(per_rank.size());
  if (avg <= 0.0) return 1.0;
  return mx / avg;
}

u64 n50(std::vector<u64> lengths) {
  const u64 total = std::accumulate(lengths.begin(), lengths.end(), u64{0});
  if (total == 0) return 0;
  std::sort(lengths.begin(), lengths.end(), std::greater<>());
  u64 acc = 0;
  for (u64 len : lengths) {
    acc += len;
    if (2 * acc >= total) return len;
  }
  return lengths.back();  // unreachable: the loop covers total
}

}  // namespace dibella::util
