#pragma once
/// \file spans.hpp
/// The benchmark's own span record: name, lane (rank, or the merge thread),
/// start, end and parent, kept in memory and written out when the benchmark
/// ends. Spans are recorded by the benchmark around its calls into each
/// layer's public entry point; nothing inside the program is traced.
///
/// A span's *layer* is the part of its name before the first '.', named
/// after the `src/` module it calls into (`bloom`, `dht`, `align`, ...).
/// `<stage>.wait` spans time the barrier the benchmark places after each
/// stage call, so a rank's wait is charged to the stage that caused it.
/// Spans whose first name component is not a layer (`job`, `world.run`)
/// are structure only.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using i64 = std::int64_t;
using u32 = std::uint32_t;

/// Monotonic nanoseconds (steady_clock).
i64 now_ns();

struct SpanRec {
  u32 id = 0;      ///< unique within one traced job (0 = none)
  u32 parent = 0;  ///< id of the causing span, possibly on another lane
  int lane = 0;    ///< rank, or `ranks` for the merge thread
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// One thread's spans. Single writer: each rank thread owns its lane.
class Lane {
 public:
  Lane(int lane, u32 id_base) : lane_(lane), next_id_(id_base) {}

  /// Open a span; returns its id for close() and for children's parent.
  u32 open(const char* name, u32 parent);
  void close(u32 id);

  /// Run `fn` inside a span.
  template <class Fn>
  void timed(const char* name, u32 parent, Fn&& fn) {
    const u32 id = open(name, parent);
    fn();
    close(id);
  }

  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  int lane_;
  u32 next_id_;
  std::vector<SpanRec> spans_;
};

/// All spans of one traced job: lanes 0..ranks-1 are ranks, lane `ranks`
/// is the merge (main) thread.
class JobSpans {
 public:
  explicit JobSpans(int ranks);
  Lane& lane(int index) { return lanes_[static_cast<std::size_t>(index)]; }
  Lane& main() { return lanes_.back(); }

  std::vector<SpanRec> all() const;

 private:
  std::vector<Lane> lanes_;
};

/// Layer of a span name ("" for structural spans).
std::string layer_of(const char* name);

/// The layers the benchmark calls into, in pipeline order.
const std::vector<std::string>& layers();

/// Per-job aggregates over a finished span set.
struct SpanSummary {
  /// Max over rank lanes of the summed durations of spans named `name`
  /// (merge-thread spans: their duration).
  double max_over_lanes(const char* name) const;
  /// Mean over rank lanes of the same sums.
  double mean_over_ranks(const char* name) const;
  /// Sum over rank lanes of the same sums.
  double sum_over_ranks(const char* name) const;
  /// Layer self time: per lane, the summed durations of the layer's spans
  /// minus the parts their child spans cover; max over lanes.
  double layer_self(const std::string& layer) const;
  /// Wall of the root `job` span not covered by any layer span on any lane.
  double unattributed() const;

  std::vector<SpanRec> spans;
  int ranks = 0;
};

/// Write spans as TSV (`job lane id parent layer name start_ns end_ns`),
/// times relative to `origin_ns`.
void write_spans_tsv(std::ostream& os, int job, const std::vector<SpanRec>& spans,
                     i64 origin_ns);

}  // namespace perfbench
