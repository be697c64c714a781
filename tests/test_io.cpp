// Unit tests for the io module: FASTQ/FASTA parse & write, byte-range
// record synchronization (parallel-I/O emulation), read partitioning, and
// the per-rank ReadStore.

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "io/fastx.hpp"
#include "io/read_store.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

namespace dio = dibella::io;
using dibella::u64;

namespace {

std::vector<dio::Read> sample_reads(int n, u64 seed = 3) {
  dibella::util::Xoshiro256 rng(seed);
  std::vector<dio::Read> reads;
  for (int i = 0; i < n; ++i) {
    dio::Read r;
    r.gid = static_cast<u64>(i);
    r.name = "read" + std::to_string(i);
    std::size_t len = 20 + rng.uniform_below(100);
    r.seq.resize(len);
    for (auto& c : r.seq) c = "ACGT"[rng.uniform_below(4)];
    r.qual.assign(len, static_cast<char>('!' + rng.uniform_below(40)));
    reads.push_back(std::move(r));
  }
  return reads;
}

}  // namespace

TEST(Fastx, FastqRoundTrip) {
  auto reads = sample_reads(25);
  std::string text = dio::to_fastq(reads);
  auto parsed = dio::parse_fastq(text);
  ASSERT_EQ(parsed.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(parsed[i].gid, i);
    EXPECT_EQ(parsed[i].name, reads[i].name);
    EXPECT_EQ(parsed[i].seq, reads[i].seq);
    EXPECT_EQ(parsed[i].qual, reads[i].qual);
  }
}

TEST(Fastx, FastaRoundTripAndMultiline) {
  auto reads = sample_reads(5);
  std::string text = dio::to_fasta(reads);
  auto parsed = dio::parse_fasta(text);
  ASSERT_EQ(parsed.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(parsed[i].seq, reads[i].seq);
  }
  // Multi-line sequences concatenate.
  auto multi = dio::parse_fasta(">r1\nACGT\nACGT\n>r2\nTTTT\n");
  ASSERT_EQ(multi.size(), 2u);
  EXPECT_EQ(multi[0].seq, "ACGTACGT");
  EXPECT_EQ(multi[1].seq, "TTTT");
}

TEST(Fastx, RejectsMalformedFastq) {
  EXPECT_THROW(dio::parse_fastq("@r1\nACGT\nACGT\n!!!!\n"), dibella::Error);
  EXPECT_THROW(dio::parse_fastq("@r1\nACGT\n+\n!!\n"), dibella::Error);
}

TEST(Fastx, ToleratesCrlfAndTrailingBlank) {
  auto parsed = dio::parse_fastq("@r1\r\nACGT\r\n+\r\n!!!!\r\n\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, "ACGT");
}

TEST(Fastx, FileRoundTrip) {
  namespace fs = std::filesystem;
  auto reads = sample_reads(10);
  fs::path path = fs::temp_directory_path() / "dibella_test_io.fq";
  dio::save_file(path.string(), dio::to_fastq(reads));
  auto parsed = dio::parse_fastq(dio::load_file(path.string()));
  EXPECT_EQ(parsed.size(), reads.size());
  fs::remove(path);
  EXPECT_THROW(dio::load_file((fs::temp_directory_path() / "nonexistent_x").string()),
               dibella::Error);
}

TEST(ReadPartition, BalancesBytesAndCoversAll) {
  auto reads = sample_reads(200, 5);
  std::vector<u64> lens;
  for (auto& r : reads) lens.push_back(r.seq.size());
  u64 total = std::accumulate(lens.begin(), lens.end(), u64{0});
  for (int ranks : {1, 2, 3, 8, 17}) {
    dio::ReadPartition part(lens, ranks);
    EXPECT_EQ(part.ranks(), ranks);
    EXPECT_EQ(part.total_reads(), reads.size());
    u64 covered = 0;
    for (int r = 0; r < ranks; ++r) {
      covered += part.count(r);
      // Per-rank bytes within 2x of the mean (long reads make perfect
      // balance impossible; the paper's partition has the same property).
      u64 bytes = 0;
      for (u64 g = part.first_gid(r); g < part.first_gid(r) + part.count(r); ++g) {
        bytes += lens[static_cast<std::size_t>(g)];
      }
      EXPECT_LE(bytes, 2 * total / static_cast<u64>(ranks) + 200) << "rank " << r;
    }
    EXPECT_EQ(covered, reads.size());
    // owner_of agrees with the block boundaries.
    for (u64 g = 0; g < reads.size(); ++g) {
      int owner = part.owner_of(g);
      EXPECT_GE(g, part.first_gid(owner));
      EXPECT_LT(g, part.first_gid(owner) + part.count(owner));
    }
  }
}

TEST(ReadPartition, MoreRanksThanReads) {
  std::vector<u64> lens = {10, 10};
  dio::ReadPartition part(lens, 5);
  u64 covered = 0;
  for (int r = 0; r < 5; ++r) covered += part.count(r);
  EXPECT_EQ(covered, 2u);
  EXPECT_EQ(part.owner_of(0) >= 0 && part.owner_of(0) < 5, true);
}

TEST(ReadStore, LocalAndRemoteLookup) {
  auto reads = sample_reads(30, 9);
  std::vector<u64> lens;
  for (auto& r : reads) lens.push_back(r.seq.size());
  dio::ReadPartition part(lens, 3);
  dio::ReadStore store(reads, part, 1);
  u64 lo = part.first_gid(1);
  EXPECT_TRUE(store.is_local(lo));
  EXPECT_EQ(store.local_read(lo).name, reads[static_cast<std::size_t>(lo)].name);
  EXPECT_EQ(store.get(lo).gid, lo);
  // A read from rank 0's block is not local; caching makes it visible.
  EXPECT_FALSE(store.is_local(0));
  EXPECT_THROW(store.get(0), dibella::Error);
  store.cache_remote(reads[0]);
  EXPECT_EQ(store.get(0).name, reads[0].name);
  EXPECT_EQ(store.remote_cache_size(), 1u);
  // Bulk cache.
  store.cache_remote_bulk({reads[1], reads[2]});
  EXPECT_EQ(store.get(2).name, reads[2].name);
  store.clear_remote_cache();
  EXPECT_THROW(store.get(0), dibella::Error);
}

TEST(ReadStore, RejectsWrongBlock) {
  auto reads = sample_reads(10, 11);
  std::vector<u64> lens;
  for (auto& r : reads) lens.push_back(r.seq.size());
  dio::ReadPartition part(lens, 2);
  // Construct with a block that is not rank 1's: must throw.
  std::vector<dio::Read> wrong(reads.begin(), reads.begin() + 2);
  if (part.count(1) != 2 || part.first_gid(1) != 0) {
    EXPECT_THROW(dio::ReadStore::from_local_block(wrong, part, 1), dibella::Error);
  }
}
