// Tests for the bloom module: the Bloom filter, the a-priori cardinality
// estimate that sizes it, and the distributed Bloom pipeline stage.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "bloom/bloom_filter.hpp"
#include "bloom/distributed_bloom.hpp"
#include "comm/world.hpp"
#include "io/read_store.hpp"
#include "kmer/parser.hpp"
#include "kmer/spectrum.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

namespace db = dibella::bloom;
using dibella::u64;

TEST(BloomFilter, SizingFormulas) {
  // 1M items at 1%: ~9.59 bits/item, ~7 hashes.
  u64 bits = db::BloomFilter::optimal_bits(1'000'000, 0.01);
  EXPECT_NEAR(static_cast<double>(bits) / 1e6, 9.59, 0.1);
  EXPECT_EQ(db::BloomFilter::optimal_hashes(bits, 1'000'000), 7);
  EXPECT_THROW(db::BloomFilter::optimal_bits(10, 1.5), dibella::Error);
}

TEST(BloomFilter, NoFalseNegatives) {
  db::BloomFilter f(10'000, 0.05);
  dibella::util::Xoshiro256 rng(1);
  std::vector<std::pair<u64, u64>> items;
  for (int i = 0; i < 10'000; ++i) items.emplace_back(rng.next(), rng.next());
  for (auto [h1, h2] : items) f.insert(h1, h2);
  for (auto [h1, h2] : items) EXPECT_TRUE(f.contains(h1, h2));
}

TEST(BloomFilter, FalsePositiveRateNearTarget) {
  const double target = 0.05;
  db::BloomFilter f(20'000, target);
  dibella::util::Xoshiro256 rng(2);
  for (int i = 0; i < 20'000; ++i) f.insert(rng.next(), rng.next());
  int fp = 0;
  const int probes = 50'000;
  for (int i = 0; i < probes; ++i) {
    if (f.contains(rng.next(), rng.next())) ++fp;
  }
  double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 2.0 * target);
  EXPECT_GT(rate, 0.0);  // a useful filter is not trivially empty
  EXPECT_NEAR(rate, f.theoretical_fpr(20'000), 0.03);
}

TEST(BloomFilter, TestAndInsertDetectsRepeats) {
  db::BloomFilter f(1'000, 0.01);
  dibella::util::Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    u64 h1 = rng.next(), h2 = rng.next();
    EXPECT_FALSE(f.test_and_insert(h1, h2)) << i;  // first time: absent (w.h.p.)
    EXPECT_TRUE(f.test_and_insert(h1, h2));        // second time: present, always
    EXPECT_TRUE(f.contains(h1, h2));
  }
  EXPECT_GT(f.popcount(), 0u);
  EXPECT_GT(f.memory_bytes(), 0u);
}

TEST(CardinalityEstimate, UpperBoundsSimulatedData) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  const int k = 17;
  std::vector<std::string> seqs;
  u64 windows = 0;
  for (auto& r : sim.reads) {
    seqs.push_back(r.seq);
    windows += dibella::kmer::window_count(r.seq.size(), k);
  }
  auto counts = dibella::kmer::count_canonical(seqs, k);
  u64 est = db::estimate_distinct_kmers(windows, 0.12, k);
  EXPECT_GE(est, counts.size());          // never undersize the filter
  EXPECT_LE(est, 2 * windows);            // and never absurdly oversize
}

// --- distributed stage 1 ---------------------------------------------------

namespace {

struct RankOutput {
  db::BloomStageResult result;
  std::vector<dibella::kmer::Kmer> keys;
};

std::vector<RankOutput> run_stage1(int P, const std::vector<dibella::io::Read>& reads,
                                   int k) {
  std::vector<dibella::u64> lens;
  for (auto& r : reads) lens.push_back(r.seq.size());
  dibella::io::ReadPartition part(lens, P);
  dibella::comm::World world(P);
  std::vector<RankOutput> out(static_cast<std::size_t>(P));
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
  world.run([&](dibella::comm::Communicator& comm) {
    dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
    ctx.attach();
    dibella::io::ReadStore store(reads, part, comm.rank());
    dibella::dht::LocalKmerTable table;
    db::BloomStageConfig cfg;
    cfg.k = k;
    cfg.batch_kmers = 10'000;  // force several streaming batches
    auto res = db::run_bloom_stage(ctx, store, cfg, table);
    auto& slot = out[static_cast<std::size_t>(comm.rank())];
    slot.result = res;
    table.for_each([&](const dibella::kmer::Kmer& km, dibella::u32 /*count*/,
                       const std::vector<dibella::dht::ReadOccurrence>&) {
      slot.keys.push_back(km);
    });
  });
  return out;
}

}  // namespace

TEST(DistributedBloomStage, CandidatesCoverAllRepeatedKmers) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  const int k = 17;
  std::vector<std::string> seqs;
  for (auto& r : sim.reads) seqs.push_back(r.seq);
  auto oracle = dibella::kmer::count_canonical(seqs, k);

  const int P = 4;
  auto outputs = run_stage1(P, sim.reads, k);

  std::set<std::string> candidates;
  u64 parsed_total = 0;
  for (int r = 0; r < P; ++r) {
    parsed_total += outputs[static_cast<std::size_t>(r)].result.parsed_instances;
    for (const auto& km : outputs[static_cast<std::size_t>(r)].keys) {
      // Keys must be owned by the rank holding them.
      EXPECT_EQ(db::kmer_owner(km, P), r);
      candidates.insert(km.to_string(k));
    }
  }
  // Every k-mer instance was parsed exactly once across ranks.
  u64 oracle_instances = 0;
  for (auto& [km, c] : oracle) oracle_instances += c;
  EXPECT_EQ(parsed_total, oracle_instances);

  // Bloom filters have no false negatives: every k-mer with count >= 2 must
  // be a candidate.
  u64 repeated = 0;
  for (auto& [km, c] : oracle) {
    if (c >= 2) {
      ++repeated;
      EXPECT_TRUE(candidates.count(km.to_string(k))) << km.to_string(k);
    }
  }
  ASSERT_GT(repeated, 100u);  // dataset has real overlap signal
  // False positives admit some singletons but not a flood: candidate count
  // stays well below the full distinct set.
  EXPECT_LT(candidates.size(), oracle.size() / 2);
  EXPECT_GE(candidates.size(), repeated);
}

TEST(DistributedBloomStage, StreamingBatchesCoverInput) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(7));
  auto outputs = run_stage1(3, sim.reads, 17);
  // With a 10k batch and a ~400k-instance dataset every rank runs multiple
  // batches, and ranks agree on the batch count (bulk-synchronous loop).
  EXPECT_GT(outputs[0].result.batches, 1u);
  EXPECT_EQ(outputs[0].result.batches, outputs[1].result.batches);
  EXPECT_EQ(outputs[1].result.batches, outputs[2].result.batches);
}

TEST(DistributedBloomStage, ReceivedInstancesBalanced) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(11));
  const int P = 4;
  auto outputs = run_stage1(P, sim.reads, 17);
  u64 total = 0, mx = 0;
  for (auto& o : outputs) {
    total += o.result.received_instances;
    mx = std::max(mx, o.result.received_instances);
  }
  double avg = static_cast<double>(total) / P;
  // Uniform hashing: the busiest rank within 15% of average.
  EXPECT_LT(static_cast<double>(mx), 1.15 * avg);
}
