// Tests for the distributed auxiliary features: HyperLogLog-based
// distributed cardinality estimation (HipMer's fallback path, §6).

#include <gtest/gtest.h>

#include <set>

#include "bloom/distributed_bloom.hpp"
#include "bloom/distributed_cardinality.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "dht/distributed_table.hpp"
#include "io/read_store.hpp"
#include "kmer/parser.hpp"
#include "kmer/spectrum.hpp"
#include "simgen/presets.hpp"

using dibella::u64;

namespace {

struct Fixture {
  std::vector<dibella::io::Read> reads;
  dibella::io::ReadPartition partition;
  Fixture(u64 seed, int P) {
    auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(seed));
    reads = std::move(sim.reads);
    std::vector<u64> lens;
    for (auto& r : reads) lens.push_back(r.seq.size());
    partition = dibella::io::ReadPartition(lens, P);
  }
};

}  // namespace

TEST(DistributedCardinality, EstimateWithinTenPercentOfTruth) {
  const int P = 4;
  const int k = 17;
  Fixture fx(61, P);
  std::vector<std::string> seqs;
  for (auto& r : fx.reads) seqs.push_back(r.seq);
  auto truth = dibella::kmer::count_canonical(seqs, k).size();

  dibella::comm::World world(P);
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
  std::vector<double> estimates(static_cast<std::size_t>(P), 0.0);
  std::vector<u64> instances(static_cast<std::size_t>(P), 0);
  world.run([&](dibella::comm::Communicator& comm) {
    dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
    ctx.attach();
    dibella::io::ReadStore store(fx.reads, fx.partition, comm.rank());
    auto res = dibella::bloom::estimate_cardinality_hll(ctx, store, k);
    estimates[static_cast<std::size_t>(comm.rank())] = res.estimate;
    instances[static_cast<std::size_t>(comm.rank())] = res.local_instances;
  });
  // All ranks agree on the estimate.
  for (int r = 1; r < P; ++r) {
    EXPECT_DOUBLE_EQ(estimates[static_cast<std::size_t>(r)], estimates[0]);
  }
  EXPECT_NEAR(estimates[0], static_cast<double>(truth), 0.10 * static_cast<double>(truth));
  // Scan covered every local read exactly once.
  u64 total_instances = 0;
  for (u64 n : instances) total_instances += n;
  u64 expected = 0;
  for (auto& s : seqs) expected += dibella::kmer::window_count(s.size(), k);
  EXPECT_EQ(total_instances, expected);
}

TEST(DistributedCardinality, HllSizedBloomStageMatchesDefaultPath) {
  // Stage 1 with HyperLogLog sizing admits the same candidates (the filter
  // size changes, the no-false-negative property does not).
  const int P = 3;
  const int k = 17;
  Fixture fx(67, P);

  auto run_with = [&](bool use_hll) {
    std::set<std::string> keys;
    dibella::comm::World world(P);
    std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
    std::vector<std::set<std::string>> per_rank(static_cast<std::size_t>(P));
    world.run([&](dibella::comm::Communicator& comm) {
      dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
      ctx.attach();
      dibella::io::ReadStore store(fx.reads, fx.partition, comm.rank());
      dibella::dht::LocalKmerTable table;
      dibella::bloom::BloomStageConfig cfg;
      cfg.k = k;
      cfg.use_hyperloglog_cardinality = use_hll;
      dibella::bloom::run_bloom_stage(ctx, store, cfg, table);
      auto& mine = per_rank[static_cast<std::size_t>(comm.rank())];
      table.for_each([&](const dibella::kmer::Kmer& km, dibella::u32,
                         const std::vector<dibella::dht::ReadOccurrence>&) {
        mine.insert(km.to_string(k));
      });
    });
    for (auto& m : per_rank) keys.insert(m.begin(), m.end());
    return keys;
  };

  auto default_keys = run_with(false);
  auto hll_keys = run_with(true);
  // Both runs must contain every truly-repeated k-mer (no false negatives);
  // false-positive sets may differ because the filters are sized differently.
  std::vector<std::string> seqs;
  for (auto& r : fx.reads) seqs.push_back(r.seq);
  auto counts = dibella::kmer::count_canonical(seqs, k);
  for (auto& [km, c] : counts) {
    if (c >= 2) {
      EXPECT_TRUE(default_keys.count(km.to_string(k)));
      EXPECT_TRUE(hll_keys.count(km.to_string(k)));
    }
  }
}
