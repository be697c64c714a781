#include "bloom/distributed_cardinality.hpp"

#include "comm/exchanger.hpp"
#include "kmer/parser.hpp"

namespace dibella::bloom {

CardinalityResult estimate_cardinality_hll(core::StageContext& ctx,
                                           const io::ReadStore& reads, int k,
                                           int precision_bits) {
  auto& comm = ctx.comm;
  comm.set_stage("bloom");
  CardinalityResult result;

  HyperLogLog sketch(precision_bits);
  const u64 first = reads.first_local_gid();
  const u64 count = reads.local_count();
  for (u64 g = first; g < first + count; ++g) {
    kmer::for_each_canonical_kmer(reads.local_read(g).seq, k,
                                  [&](const kmer::Occurrence& occ) {
      sketch.add(occ.kmer.hash(0xCA4D1417));
      ++result.local_instances;
    });
  }
  ctx.trace.add_work("bloom:pack", {.kmers_parsed = result.local_instances},
                     sketch.registers().size());

  // Combine: every rank contributes its registers; the union sketch is the
  // register-wise max. (Real MPI would use MPI_Allreduce with MPI_MAX.)
  auto all_registers = comm::allgatherv(comm, sketch.registers());
  const std::size_t m = sketch.registers().size();
  DIBELLA_CHECK(all_registers.size() % m == 0, "cardinality combine: bad payload");
  HyperLogLog combined(precision_bits);
  for (std::size_t r = 0; r * m < all_registers.size(); ++r) {
    std::vector<u8> regs(all_registers.begin() + static_cast<std::ptrdiff_t>(r * m),
                         all_registers.begin() + static_cast<std::ptrdiff_t>((r + 1) * m));
    combined.merge(HyperLogLog::from_registers(precision_bits, std::move(regs)));
  }
  result.estimate = combined.estimate();
  return result;
}

}  // namespace dibella::bloom
