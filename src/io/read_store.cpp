#include "io/read_store.hpp"

#include <algorithm>

#include "util/common.hpp"

namespace dibella::io {

ReadPartition::ReadPartition(const std::vector<u64>& seq_lengths, int ranks) {
  DIBELLA_CHECK(ranks >= 1, "ReadPartition needs >= 1 rank");
  u64 total = 0;
  for (u64 len : seq_lengths) total += len;
  first_gid_.assign(static_cast<std::size_t>(ranks) + 1, 0);
  u64 gid = 0;
  u64 accumulated = 0;
  for (int r = 0; r < ranks; ++r) {
    first_gid_[static_cast<std::size_t>(r)] = gid;
    // Target for ranks [0, r] combined; keeps the split stable and contiguous.
    u64 target = total * static_cast<u64>(r + 1) / static_cast<u64>(ranks);
    while (gid < seq_lengths.size() && accumulated < target) {
      accumulated += seq_lengths[static_cast<std::size_t>(gid)];
      ++gid;
    }
  }
  first_gid_[static_cast<std::size_t>(ranks)] = static_cast<u64>(seq_lengths.size());
  // Ensure the last rank absorbs any remainder (loop above already guarantees
  // gid == N when r == ranks-1 because target == total).
  auto lens = std::make_shared<std::vector<u32>>();
  lens->reserve(seq_lengths.size());
  for (u64 len : seq_lengths) lens->push_back(static_cast<u32>(len));
  lengths_ = std::move(lens);
}

ReadStore::ReadStore(const std::vector<Read>& all, const ReadPartition& partition,
                     int rank)
    : rank_(rank), partition_(partition) {
  u64 lo = partition_.first_gid(rank);
  u64 hi = lo + partition_.count(rank);
  local_.reserve(hi - lo);
  for (u64 g = lo; g < hi; ++g) {
    DIBELLA_CHECK(all[static_cast<std::size_t>(g)].gid == g,
                  "ReadStore: input reads must be gid-ordered");
    local_.push_back(all[static_cast<std::size_t>(g)]);
    resident_local_bytes_ += all[static_cast<std::size_t>(g)].seq.size();
  }
  note_peak();
}

ReadStore::ReadStore(const std::vector<Read>& all, const ReadPartition& partition,
                     int rank, const BlockConfig& cfg)
    : ReadStore(all, partition, rank) {
  DIBELLA_CHECK(cfg.blocks >= 1, "ReadStore: need >= 1 block");
  block_cfg_ = cfg;
  if (cfg.blocks == 1) return;  // in-memory path, keep local_ as built

  const u64 count = partition_.count(rank_);
  local_lengths_.reserve(static_cast<std::size_t>(count));
  for (const Read& r : local_) {
    local_lengths_.push_back(static_cast<u32>(r.seq.size()));
  }
  packed_blocks_.reserve(cfg.blocks);
  block_first_offset_.reserve(static_cast<std::size_t>(cfg.blocks) + 1);
  for (u32 b = 0; b < cfg.blocks; ++b) {
    const u64 first = block_lower(count, cfg.blocks, b);
    const u64 next = block_lower(count, cfg.blocks, b + 1);
    block_first_offset_.push_back(first);
    packed_blocks_.push_back(PackedReadBlock::pack(
        local_.data() + first, static_cast<std::size_t>(next - first)));
  }
  block_first_offset_.push_back(count);
  local_.clear();
  local_.shrink_to_fit();
  resident_local_bytes_ = 0;
  peak_resident_bytes_ = 0;  // restart the high-water after dropping the build copy
  unpacked_.resize(cfg.blocks);
  lru_stamp_.assign(cfg.blocks, 0);
}

bool ReadStore::is_local(u64 gid) const {
  u64 lo = partition_.first_gid(rank_);
  return gid >= lo && gid < lo + partition_.count(rank_);
}

const std::vector<Read>& ReadStore::loaded_block(u32 b) const {
  if (!unpacked_[b]) {
    unpacked_[b] = std::make_unique<std::vector<Read>>(packed_blocks_[b].unpack());
    resident_local_bytes_ += packed_blocks_[b].unpacked_seq_bytes();
    ++block_loads_;
    note_peak();
    lru_stamp_[b] = ++lru_clock_;
    // Budget-driven eviction: drop least-recently-touched blocks while over
    // budget, but always keep at least two resident so a caller holding
    // references to two reads (the alignment a/b pair) never dangles. With
    // three or more loaded the LRU minimum is never one of the two most
    // recently touched.
    if (block_cfg_.memory_budget_bytes > 0) {
      for (;;) {
        if (resident_local_bytes_ + remote_bytes_ <= block_cfg_.memory_budget_bytes) break;
        u32 victim = block_cfg_.blocks;
        u64 best = ~u64{0};
        u32 loaded = 0;
        for (u32 i = 0; i < block_cfg_.blocks; ++i) {
          if (!unpacked_[i]) continue;
          ++loaded;
          if (i != b && lru_stamp_[i] < best) {
            best = lru_stamp_[i];
            victim = i;
          }
        }
        if (loaded <= 2 || victim == block_cfg_.blocks) break;
        resident_local_bytes_ -= packed_blocks_[victim].unpacked_seq_bytes();
        unpacked_[victim].reset();
        ++block_evictions_;
      }
    }
  } else {
    lru_stamp_[b] = ++lru_clock_;
  }
  return *unpacked_[b];
}

const Read& ReadStore::local_read(u64 gid) const {
  DIBELLA_CHECK(is_local(gid), "local_read: gid not owned by this rank");
  const u64 offset = gid - partition_.first_gid(rank_);
  if (block_cfg_.blocks == 1) {
    return local_[static_cast<std::size_t>(offset)];
  }
  const u32 b = block_of(partition_, block_cfg_.blocks, gid);
  const std::vector<Read>& reads = loaded_block(b);
  return reads[static_cast<std::size_t>(offset - block_first_offset_[b])];
}

u64 ReadStore::local_length(u64 gid) const {
  DIBELLA_CHECK(is_local(gid), "local_length: gid not owned by this rank");
  const u64 offset = gid - partition_.first_gid(rank_);
  if (block_cfg_.blocks == 1) {
    return local_[static_cast<std::size_t>(offset)].seq.size();
  }
  return local_lengths_[static_cast<std::size_t>(offset)];
}

void ReadStore::cache_remote_bulk(std::vector<Read> rs) {
  remote_.reserve(remote_.size() + rs.size());
  for (auto& r : rs) {
    remote_bytes_ += r.seq.size();
    remote_.push_back(std::move(r));
  }
  rebuild_remote_index();
  note_peak();
}

void ReadStore::clear_remote_cache() {
  remote_.clear();
  remote_index_.clear();
  remote_bytes_ = 0;
}

void ReadStore::rebuild_remote_index() {
  remote_index_.resize(remote_.size());
  for (std::size_t i = 0; i < remote_.size(); ++i) remote_index_[i] = i;
  std::sort(remote_index_.begin(), remote_index_.end(),
            [&](std::size_t a, std::size_t b) { return remote_[a].gid < remote_[b].gid; });
}

void ReadStore::note_peak() const {
  const u64 resident = resident_local_bytes_ + remote_bytes_;
  if (resident > peak_resident_bytes_) peak_resident_bytes_ = resident;
}

ReadStoreMemoryStats ReadStore::memory_stats() const {
  ReadStoreMemoryStats s;
  for (const PackedReadBlock& b : packed_blocks_) s.packed_bytes += b.packed_bytes();
  s.resident_bytes = resident_local_bytes_ + remote_bytes_;
  s.peak_resident_bytes = peak_resident_bytes_;
  s.block_loads = block_loads_;
  s.block_evictions = block_evictions_;
  return s;
}

void ReadStore::attach_truth(std::shared_ptr<const TruthTable> truth) {
  DIBELLA_CHECK(truth != nullptr, "attach_truth: null truth table");
  DIBELLA_CHECK(truth->size() == partition_.total_reads(),
                "attach_truth: truth table must cover every gid");
  truth_ = std::move(truth);
}

const Read& ReadStore::get(u64 gid) const {
  if (is_local(gid)) return local_read(gid);
  auto it = std::lower_bound(remote_index_.begin(), remote_index_.end(), gid,
                             [&](std::size_t idx, u64 g) { return remote_[idx].gid < g; });
  DIBELLA_CHECK(it != remote_index_.end() && remote_[*it].gid == gid,
                "ReadStore::get: read neither local nor cached");
  return remote_[*it];
}

}  // namespace dibella::io
