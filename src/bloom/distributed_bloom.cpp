#include "bloom/distributed_bloom.hpp"

#include <cmath>

#include "bloom/bloom_filter.hpp"
#include "comm/exchanger.hpp"
#include "kmer/occurrence_stream.hpp"

namespace dibella::bloom {

namespace {
constexpr u64 kBloomSalt1 = 0xB100F117;
constexpr u64 kBloomSalt2 = 0xB100F22E;
}  // namespace

u64 estimate_distinct_kmers(u64 parsed_instances, double error_rate, int k) {
  // P[a k-mer window is error-free] = (1-e)^k; erroneous windows are almost
  // surely unique (singletons), error-free windows collapse onto ~G genomic
  // k-mers. distinct ~ errored + genomic ~ instances*(1-(1-e)^k) + margin.
  double p_clean = std::pow(1.0 - error_rate, k);
  double distinct = static_cast<double>(parsed_instances) * (1.0 - p_clean) +
                    static_cast<double>(parsed_instances) * p_clean * 0.1;
  // 10% safety headroom, and never size for zero.
  return std::max<u64>(64, static_cast<u64>(distinct * 1.1));
}

BloomStageResult run_bloom_stage(core::StageContext& ctx, const io::ReadStore& reads,
                                 const BloomStageConfig& cfg,
                                 dht::LocalKmerTable& table) {
  auto& comm = ctx.comm;
  comm.set_stage("bloom");
  const int P = comm.size();
  BloomStageResult result;

  // --- the a-priori Eq. 2 + singleton-ratio estimate (§6) sizes this rank's
  // Bloom partition. Uniform hashing gives each rank ~1/P of the distinct set.
  u64 local_windows = 0;
  const u64 first = reads.first_local_gid();
  for (u64 g = first; g < first + reads.local_count(); ++g) {
    local_windows += kmer::window_count(reads.local_length(g), cfg.k);
  }
  u64 total_windows = comm::allreduce_sum(comm, local_windows);
  u64 est_distinct = estimate_distinct_kmers(total_windows, cfg.assumed_error_rate, cfg.k);
  if (cfg.sketch.enabled()) {
    // Sketching inserts only the sampled subset; scale the filter by the
    // scheme's expected density (an overestimate for the distinct count,
    // which errs toward a lower false-positive rate).
    est_distinct = static_cast<u64>(static_cast<double>(est_distinct) *
                                    sketch::expected_density(cfg.sketch)) +
                   64;
  }
  u64 est_local = est_distinct / static_cast<u64>(P) + 64;
  BloomFilter filter(est_local, cfg.bloom_fpr);
  result.bloom_bits = filter.bit_count();

  // --- memory-bounded streaming pass: pack -> exchange -> local insert.
  // Compute accounting records exact work units (netsim::Work); only the
  // cost model prices them, and only when a modeled report is asked for.
  // Either schedule consumes each batch in source-rank order over the same
  // batch boundaries, so insertions happen in the same global order and
  // the resulting filter/table are bitwise-identical.
  kmer::OccurrenceStream stream(reads, cfg.k, cfg.sketch);
  comm::Exchanger ex(comm, {cfg.exchange_chunk_bytes, cfg.overlap_comm});
  std::vector<kmer::Kmer> scratch;
  result.batches = comm::run_exchange(
      ex,
      [&] {
        u64 parsed = 0;
        const u64 windows_before = stream.sketch_stats().windows_scanned;
        bool more =
            stream.fill(cfg.batch_kmers, [&](u64 /*rid*/, const kmer::Occurrence& occ) {
              ex.post(kmer_owner(occ.kmer, P), &occ.kmer, 1);
              ++parsed;
            });
        result.parsed_instances += parsed;
        // Parse work is per window scanned, not per seed kept — sketching
        // still rolls every k-mer, it just posts fewer of them.
        const u64 scanned = stream.sketch_stats().windows_scanned - windows_before;
        ctx.trace.add_work("bloom:pack", {.kmers_parsed = scanned}, ex.pending_bytes());
        return more;
      },
      [&](const comm::RecvBatch& batch) {
        obs::Span span = ctx.span("bloom:insert");
        scratch.clear();
        batch.append_to(scratch);
        span.arg("kmers", scratch.size());
        u64 hits = 0;
        for (const kmer::Kmer& km : scratch) {
          ++result.received_instances;
          if (filter.test_and_insert(km.hash(kBloomSalt1), km.hash(kBloomSalt2))) {
            table.insert_key(km);
            ++hits;
          }
        }
        ctx.trace.add_work("bloom:local", {.bloom_inserts = scratch.size(), .table_inserts = hits},
                           filter.memory_bytes() + table.memory_bytes());
      });

  result.candidate_keys = table.size();
  result.bloom_set_bits = filter.popcount();
  result.windows_scanned = stream.sketch_stats().windows_scanned;
  // The Bloom filter is freed here (scope exit) once the table holds the
  // candidate keys — matching §6: "After the hash table is initialized with
  // k-mer keys, the Bloom filter is freed."
  return result;
}

}  // namespace dibella::bloom
