#pragma once
/// \file rank_trace.hpp
/// Per-rank execution trace: an ordered stream of compute segments and
/// collective (exchange) events. The pipeline records one trace per rank;
/// the cost model replays traces superstep-by-superstep to produce
/// platform-scaled stage timings (BSP semantics: a superstep's duration is
/// the max over ranks).
///
/// A compute segment records exact work units, never seconds: pricing them
/// is the cost model's job (netsim/kernel_costs.hpp), so a run that asks for
/// no modeled report never measures kernel costs at all.

#include <string>
#include <vector>

#include "util/common.hpp"

namespace dibella::netsim {

/// Exact work units of one compute segment. One field per kernel, in the
/// order of the per-unit prices in KernelCosts.
struct Work {
  u64 kmers_parsed = 0;        ///< rolling canonical parse + buffer push
  u64 bloom_inserts = 0;       ///< Bloom filter test_and_insert calls
  u64 table_inserts = 0;       ///< hash table insert/add_occurrence calls
  u64 keys_traversed = 0;      ///< hash table keys visited by a scan
  u64 pairs_consolidated = 0;  ///< tasks/records grouped by read pair
  u64 dp_cells = 0;            ///< x-drop DP cells
  u64 bytes_copied = 0;        ///< bulk byte marshalling
  u64 graph_probes = 0;        ///< transitive-reduction witness lookups
};

/// One element of a rank's trace.
///
/// kExchangeStart marks the launch of a nonblocking exchange
/// (Exchanger::flush_async): every compute segment between it and the next
/// kExchange event ran while that exchange was in flight, so the cost model
/// may hide the exchange's virtual time behind it (the exposed/hidden
/// split). A kExchange with no preceding start marker is a blocking
/// collective — fully exposed.
struct TraceEvent {
  enum class Kind : u8 { kCompute, kExchange, kExchangeStart };
  Kind kind = Kind::kCompute;

  // kCompute fields:
  std::string stage;           ///< pipeline stage tag, may contain a ":sub" suffix
  Work work;                   ///< exact work units of the segment
  u64 working_set_bytes = 0;   ///< approximate bytes touched (cache model input)

  // kExchange fields:
  u64 exchange_seq = 0;  ///< aligns with ExchangeRecord::seq in the world log
};

/// Ordered trace of one rank's execution.
class RankTrace {
 public:
  /// Record a compute segment as its exact work units.
  void add_work(std::string stage, const Work& work, u64 working_set_bytes) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kCompute;
    ev.stage = std::move(stage);
    ev.work = work;
    ev.working_set_bytes = working_set_bytes;
    events_.push_back(std::move(ev));
  }

  /// Record that the rank participated in collective `seq`.
  void add_exchange(u64 seq) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kExchange;
    ev.exchange_seq = seq;
    events_.push_back(std::move(ev));
  }

  /// Record that a nonblocking exchange started; it completes at the next
  /// kExchange event in this trace, and compute recorded in between is
  /// concurrent with the exchange.
  void add_exchange_start() {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kExchangeStart;
    events_.push_back(std::move(ev));
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Number of exchange events in the trace.
  std::size_t exchange_count() const {
    std::size_t n = 0;
    for (const auto& ev : events_) {
      if (ev.kind == TraceEvent::Kind::kExchange) ++n;
    }
    return n;
  }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace dibella::netsim
