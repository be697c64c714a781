#pragma once
/// \file exchanger.hpp
/// The batched irregular all-to-all every payload crossing ranks travels
/// through: a chunked exchange with post / flush_async / wait semantics;
/// run_exchange, the one loop driver that runs a stage's pack/consume pair
/// under either of two schedules; and the two small collectives the
/// pipeline needs besides (allgatherv, allreduce_sum), each one flush/wait.
///
/// The schedule is part of the Exchanger's config (`Config::overlap`):
///
///   * overlapped — batch i+1 is packed and batch i-1 consumed while batch
///     i is in flight (one flush outstanding at a time);
///   * bulk-synchronous (the paper's superstep) — pack, flush, wait,
///     consume, in lock-step, so nothing overlaps the exchange.
///
/// Both schedules call the same pack/consume lambdas in the same order,
/// over the same batch boundaries, and consume each batch in source-rank
/// order, so their outputs are bitwise-identical by construction. Both
/// travel the same framed, self-healing chunk path.
///
/// flush_async seals the current pack buffers into per-peer chunk trains and
/// deposits them into the World's mailbox slots without blocking (deposits
/// never block, so two ranks flushing at each other cannot deadlock). wait()
/// blocks only for the deposits that have not yet arrived and returns the
/// batch concatenated in source-rank order.
///
/// Each flush carries a piggybacked per-sender `done` bit, so streaming
/// loops terminate without a separate allreduce: stop after the first batch
/// in which every sender (including self) reported done. All ranks observe
/// the same done bits for a given epoch, so the decision is SPMD-consistent.
///
/// Accounting: each flush/wait pair produces one ExchangeRecord with op
/// kExchange. wall_seconds measures only the time blocked inside wait()
/// (the *exposed* exchange time); hidden_wall_seconds measures the
/// flush-to-wait window in which the exchange was concurrent with compute.
/// The flush also fires the communicator's exchange-start sink so the rank
/// trace brackets the compute-concurrent window for the cost model's
/// virtual exposed/hidden split. Under the bulk-synchronous schedule that
/// window holds no compute, so the whole exchange stays exposed.

#include <algorithm>
#include <cstring>
#include <vector>

#include "comm/communicator.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace dibella::comm {

/// One received batch: every source's payload, concatenated in source-rank
/// order into a single contiguous buffer.
struct RecvBatch {
  std::vector<u8> bytes;
  std::vector<u64> src_offsets;  ///< size P+1 byte offsets; src s owns [s, s+1)
  std::vector<u8> done_flags;    ///< size P: sender s's piggybacked done bit

  /// True when every sender (including self) reported done with this batch.
  bool all_done() const {
    for (u8 f : done_flags) {
      if (!f) return false;
    }
    return true;
  }

  const u8* src_data(int src) const {
    return bytes.data() + src_offsets[static_cast<std::size_t>(src)];
  }
  u64 src_size_bytes(int src) const {
    return src_offsets[static_cast<std::size_t>(src) + 1] -
           src_offsets[static_cast<std::size_t>(src)];
  }

  /// Append the whole batch, reinterpreted as items of T, to `out`.
  template <class T>
  void append_to(std::vector<T>& out) const {
    static_assert(std::is_trivially_copyable_v<T>, "batch payload must be POD");
    DIBELLA_CHECK(bytes.size() % sizeof(T) == 0, "batch size not a multiple of element");
    std::size_t n = bytes.size() / sizeof(T);
    std::size_t at = out.size();
    out.resize(at + n);
    if (n > 0) std::memcpy(out.data() + at, bytes.data(), bytes.size());
  }

  /// Append one source's payload, reinterpreted as items of T, to `out`.
  template <class T>
  void append_from(int src, std::vector<T>& out) const {
    static_assert(std::is_trivially_copyable_v<T>, "batch payload must be POD");
    u64 nbytes = src_size_bytes(src);
    DIBELLA_CHECK(nbytes % sizeof(T) == 0, "batch size not a multiple of element");
    std::size_t n = nbytes / sizeof(T);
    std::size_t at = out.size();
    out.resize(at + n);
    if (n > 0) std::memcpy(out.data() + at, src_data(src), nbytes);
  }
};

/// Sequential POD reader over a received byte region (one source's slice of
/// a RecvBatch, or one source's bytes accumulated across several batches):
/// the consumption-side counterpart of post()-ing a framed record stream
/// field by field. Framed streams let a stage ship ragged records (header +
/// variable payload) through the same byte exchanges as flat ones; the
/// reader checks bounds so a truncated or misaligned frame fails loudly
/// instead of reading garbage.
class ByteReader {
 public:
  ByteReader(const u8* data, u64 size) : p_(data), left_(size) {}
  explicit ByteReader(const std::vector<u8>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool empty() const { return left_ == 0; }
  u64 remaining() const { return left_; }

  template <class T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>, "framed payload must be POD");
    DIBELLA_CHECK(left_ >= sizeof(T), "ByteReader: truncated frame");
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    left_ -= sizeof(T);
    return v;
  }

  /// Append `n` items of T to `out`.
  template <class T>
  void read_into(std::vector<T>& out, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>, "framed payload must be POD");
    DIBELLA_CHECK(left_ >= n * sizeof(T), "ByteReader: truncated frame payload");
    std::size_t at = out.size();
    out.resize(at + n);
    if (n > 0) std::memcpy(out.data() + at, p_, n * sizeof(T));
    p_ += n * sizeof(T);
    left_ -= n * sizeof(T);
  }

 private:
  const u8* p_;
  u64 left_;
};

class Exchanger {
 public:
  struct Config {
    /// Maximum bytes per mailbox chunk; a larger per-peer payload travels as
    /// a chunk train. Bounds the granularity at which a flush's data becomes
    /// available to the receiver.
    u64 chunk_bytes = 1u << 20;
    /// Schedule of run_exchange: overlap packing/consuming with the batch
    /// in flight, or run bulk-synchronous supersteps. Output is identical.
    bool overlap = true;
  };

  explicit Exchanger(Communicator& comm) : Exchanger(comm, Config()) {}
  Exchanger(Communicator& comm, Config cfg);

  /// No flush may be in flight at destruction (call wait() first); a batch
  /// packed but never flushed is simply dropped.
  ~Exchanger();

  Exchanger(const Exchanger&) = delete;
  Exchanger& operator=(const Exchanger&) = delete;

  int rank() const { return comm_.rank(); }
  int size() const { return comm_.size(); }
  const Config& config() const { return cfg_; }

  /// Append raw bytes to the current batch's payload for `dst`.
  void post_bytes(int dst, const void* data, std::size_t n);

  /// Append `n` items to the current batch's payload for `dst`.
  template <class T>
  void post(int dst, const T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>, "posted payload must be POD");
    post_bytes(dst, data, n * sizeof(T));
  }
  template <class T>
  void post(int dst, const std::vector<T>& v) {
    post(dst, v.data(), v.size());
  }

  /// Bytes posted to the current (unsealed) batch across all destinations.
  u64 pending_bytes() const { return pending_bytes_; }

  /// Seal the current batch and start exchanging it; nonblocking. `done`
  /// piggybacks this rank's termination bit to every peer. Collective: every
  /// rank flushes the same number of times in the same order relative to its
  /// other collectives. At most one flush may be in flight.
  void flush_async(bool done = false);

  bool in_flight() const { return in_flight_; }

  /// Block until the in-flight batch has fully arrived from every peer.
  RecvBatch wait();

 private:
  Communicator& comm_;
  Config cfg_;
  std::vector<std::vector<u8>> pack_;   ///< per-dst payload of the batch being packed
  std::vector<u64> flushed_bytes_;      ///< per-dst bytes of the in-flight batch
  u64 flushed_chunks_ = 0;              ///< wire chunks of the in-flight batch (peers only)
  u64 retries_before_ = 0;              ///< this rank's replay-retry tally at flush time
  u64 pending_bytes_ = 0;
  bool in_flight_ = false;
  u64 flight_epoch_ = 0;                ///< communicator epoch of the in-flight flush
  util::WallTimer flight_timer_;        ///< started at flush_async (hidden window)
};

/// Drive a complete exchange loop under the exchanger's schedule: `pack()`
/// fills the current batch and returns true while this rank may still have
/// more to send; `consume(batch)` handles each arrived batch. The loop runs
/// until the first batch in which every rank reported done, and returns the
/// number of batches exchanged.
///
/// Overlapped, batch i+1 is packed and batch i-1 consumed while batch i is
/// in flight. Bulk-synchronous, each batch is one superstep:
/// pack -> flush -> wait -> consume. The pack and consume calls, and thus
/// the output, are the same either way.
template <class PackFn, class ConsumeFn>
u64 run_exchange(Exchanger& ex, PackFn&& pack, ConsumeFn&& consume) {
  const bool overlap = ex.config().overlap;
  bool more = pack();
  ex.flush_async(/*done=*/!more);
  u64 batches = 0;
  while (true) {
    // Pack the next batch while the current one is in flight. Safe to do
    // speculatively: if this rank still has data, its done bit on the
    // in-flight batch is false, so the loop cannot terminate underneath it.
    if (overlap && more) more = pack();
    RecvBatch batch = ex.wait();
    ++batches;
    const bool all_done = batch.all_done();
    if (overlap && !all_done) ex.flush_async(/*done=*/!more);
    consume(batch);
    if (all_done) return batches;
    if (!overlap) {
      if (more) more = pack();
      ex.flush_async(/*done=*/!more);
    }
  }
}

/// Post the next slice (at most `max_items` items) of every destination's
/// vector to `ex`, advancing `cursors`; returns true while any destination
/// has items left after this slice. The building block for overlapping a
/// single large pre-built exchange (stage 3's task buffers, stage 4's
/// request lists) in bounded batches.
template <class T>
bool post_slices(Exchanger& ex, const std::vector<std::vector<T>>& per_dest,
                 std::vector<std::size_t>& cursors, std::size_t max_items) {
  bool remaining = false;
  for (int d = 0; d < ex.size(); ++d) {
    const auto& v = per_dest[static_cast<std::size_t>(d)];
    auto& at = cursors[static_cast<std::size_t>(d)];
    std::size_t n = std::min(max_items, v.size() - at);
    ex.post(d, v.data() + at, n);
    at += n;
    if (at < v.size()) remaining = true;
  }
  return remaining;
}

/// MPI_Allgatherv: every rank's `v`, concatenated in rank order. One
/// flush/wait on a default-config Exchanger, so the payload takes the same
/// framed, self-healing path as a stage exchange (and counts one collective
/// for fault injection). Collective.
template <class T>
std::vector<T> allgatherv(Communicator& comm, const std::vector<T>& v) {
  Exchanger ex(comm);
  for (int d = 0; d < comm.size(); ++d) ex.post(d, v);
  ex.flush_async(/*done=*/true);
  std::vector<T> out;
  ex.wait().append_to(out);
  return out;
}

/// MPI_Allreduce(MPI_SUM) of one u64 per rank, summed in rank order. One
/// allgatherv. Collective.
inline u64 allreduce_sum(Communicator& comm, u64 v) {
  u64 sum = 0;
  for (u64 x : allgatherv(comm, std::vector<u64>{v})) sum += x;
  return sum;
}

}  // namespace dibella::comm
