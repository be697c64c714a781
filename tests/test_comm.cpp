// Tests for the comm substrate: the threads-as-ranks World, the barrier, the
// Exchanger every payload travels through, and its allgatherv /
// allreduce_sum helpers. These are the MPI-semantics contracts the pipeline
// depends on (see DESIGN.md §2).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/exchanger.hpp"
#include "comm/world.hpp"
#include "util/random.hpp"

namespace dc = dibella::comm;
using dibella::u32;
using dibella::u64;
using dibella::u8;

TEST(World, SingleRankRuns) {
  dc::World world(1);
  int visits = 0;
  world.run([&](dc::Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(World, AllRanksRunConcurrently) {
  const int P = 8;
  dc::World world(P);
  std::atomic<int> concurrent{0}, peak{0};
  world.run([&](dc::Communicator& comm) {
    int now = ++concurrent;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    comm.barrier();  // all ranks must be alive simultaneously to pass this
    --concurrent;
  });
  EXPECT_EQ(peak.load(), P);
}

TEST(World, BarrierOrdersPhases) {
  const int P = 6;
  dc::World world(P);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  world.run([&](dc::Communicator& comm) {
    ++phase1;
    comm.barrier();
    if (phase1.load() != P) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(World, ExceptionPropagatesAndSiblingsUnwind) {
  const int P = 4;
  dc::World world(P, /*barrier_timeout_seconds=*/30.0);
  EXPECT_THROW(
      world.run([&](dc::Communicator& comm) {
        if (comm.rank() == 2) throw dibella::Error("rank 2 exploded");
        // Other ranks block in a barrier; poisoning must wake them.
        comm.barrier();
        comm.barrier();
      }),
      dibella::Error);
  // The world is reusable after a failure.
  int ok = 0;
  world.run([&](dc::Communicator& comm) {
    comm.barrier();
    if (comm.rank() == 0) ++ok;
  });
  EXPECT_EQ(ok, 1);
}

namespace {

/// One all-to-all over the Exchanger: send[d] goes to rank d, and the batch
/// holds every source's payload in source-rank order.
template <class T>
dc::RecvBatch all_to_all(dc::Communicator& comm, const std::vector<std::vector<T>>& send) {
  dc::Exchanger ex(comm);
  for (int d = 0; d < comm.size(); ++d) ex.post(d, send[static_cast<std::size_t>(d)]);
  ex.flush_async(/*done=*/true);
  return ex.wait();
}

/// Source `src`'s slice of `batch` as items of T.
template <class T>
std::vector<T> from_source(const dc::RecvBatch& batch, int src) {
  std::vector<T> out;
  batch.append_from(src, out);
  return out;
}

}  // namespace

TEST(World, CompletedBarrierReturnsEvenIfARankFailsRightAfter) {
  // Once every rank has arrived, the barrier has completed for all of them:
  // a rank that fails right after it must not turn a slower sibling's
  // wake-up into WorldPoisoned. Work committed after a barrier (the
  // checkpoint manifest line) relies on that. The race is narrow, so run
  // it many times.
  const int P = 4;
  dc::World world(P, /*barrier_timeout_seconds=*/30.0);
  for (int iter = 0; iter < 100; ++iter) {
    std::atomic<int> passed{0};
    EXPECT_THROW(world.run([&](dc::Communicator& comm) {
                   comm.barrier();
                   ++passed;
                   if (comm.rank() == iter % P) throw dibella::Error("fails after the barrier");
                   comm.barrier();
                 }),
                 dibella::Error);
    ASSERT_EQ(passed.load(), P) << "iteration " << iter;
  }
}

TEST(Comm, AlltoallvDeliversExactPayloads) {
  const int P = 5;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    int me = comm.rank();
    std::vector<std::vector<u32>> send(P);
    for (int d = 0; d < P; ++d) {
      // Rank r sends d+1 values tagged with (src, dst).
      for (int i = 0; i <= d; ++i) {
        send[static_cast<std::size_t>(d)].push_back(
            static_cast<u32>(me * 1000 + d * 10 + i));
      }
    }
    auto batch = all_to_all(comm, send);
    ASSERT_EQ(batch.src_offsets.size(), static_cast<std::size_t>(P) + 1);
    for (int s = 0; s < P; ++s) {
      auto v = from_source<u32>(batch, s);
      ASSERT_EQ(v.size(), static_cast<std::size_t>(me + 1)) << "from " << s;
      for (int i = 0; i <= me; ++i) {
        EXPECT_EQ(v[static_cast<std::size_t>(i)],
                  static_cast<u32>(s * 1000 + me * 10 + i));
      }
    }
  });
}

TEST(Comm, AlltoallvRandomizedMatchesReference) {
  const int P = 7;
  // Precompute what every rank sends: payload[src][dst] = vector<u64>.
  std::vector<std::vector<std::vector<u64>>> payload(
      P, std::vector<std::vector<u64>>(P));
  dibella::util::Xoshiro256 rng(99);
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      std::size_t n = rng.uniform_below(50);  // includes empty payloads
      for (std::size_t i = 0; i < n; ++i) payload[s][d].push_back(rng.next());
    }
  }
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    int me = comm.rank();
    auto batch = all_to_all(comm, payload[static_cast<std::size_t>(me)]);
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(from_source<u64>(batch, s),
                payload[static_cast<std::size_t>(s)][static_cast<std::size_t>(me)]);
    }
  });
}

TEST(Comm, AlltoallvFlatConcatenatesInRankOrder) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    std::vector<std::vector<u32>> send(P);
    for (int d = 0; d < P; ++d) send[static_cast<std::size_t>(d)] = {static_cast<u32>(comm.rank())};
    std::vector<u32> flat;
    all_to_all(comm, send).append_to(flat);
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) EXPECT_EQ(flat[static_cast<std::size_t>(s)], static_cast<u32>(s));
  });
}

TEST(Comm, AllgatherAndAllgatherv) {
  const int P = 6;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    auto all = dc::allgatherv(comm, std::vector<u64>{static_cast<u64>(comm.rank() * comm.rank())});
    ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], static_cast<u64>(r * r));

    // allgatherv with rank-dependent sizes (rank 0 contributes nothing).
    std::vector<u32> mine(static_cast<std::size_t>(comm.rank()), static_cast<u32>(comm.rank()));
    auto cat = dc::allgatherv(comm, mine);
    std::size_t expected_size = static_cast<std::size_t>(P * (P - 1) / 2);
    ASSERT_EQ(cat.size(), expected_size);
    std::size_t at = 0;
    for (int r = 0; r < P; ++r) {
      for (int i = 0; i < r; ++i) EXPECT_EQ(cat[at++], static_cast<u32>(r));
    }
  });
}

TEST(Comm, Reductions) {
  const int P = 9;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    u64 r = static_cast<u64>(comm.rank());
    EXPECT_EQ(dc::allreduce_sum(comm, r), static_cast<u64>(P * (P - 1) / 2));
    EXPECT_EQ(dc::allreduce_sum(comm, 0), 0u);
    EXPECT_EQ(dc::allreduce_sum(comm, r * r),
              static_cast<u64>((P - 1) * P * (2 * P - 1) / 6));
    // Full-width values: every rank contributes 2^40.
    EXPECT_EQ(dc::allreduce_sum(comm, u64{1} << 40), static_cast<u64>(P) << 40);
  });
}

TEST(Comm, BroadcastAndGather) {
  // The one-to-all and all-to-one patterns ride the same exchange: a rank
  // posts only to the peers that should receive, and every other source's
  // slice arrives empty.
  const int P = 4;
  const int kRoot = 2, kGatherRoot = 1;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    struct Payload {
      u64 a;
      double b;
    };
    std::vector<std::vector<Payload>> bcast(P);
    if (comm.rank() == kRoot) {
      for (auto& v : bcast) v = {Payload{77, 2.5}};
    }
    auto got = all_to_all(comm, bcast);
    for (int s = 0; s < P; ++s) {
      auto items = from_source<Payload>(got, s);
      if (s != kRoot) {
        EXPECT_TRUE(items.empty()) << "from " << s;
        continue;
      }
      ASSERT_EQ(items.size(), 1u);
      EXPECT_EQ(items[0].a, 77u);
      EXPECT_DOUBLE_EQ(items[0].b, 2.5);
    }

    std::vector<std::vector<u32>> to_root(P);
    to_root[kGatherRoot] = {static_cast<u32>(comm.rank() + 100)};
    auto rows = all_to_all(comm, to_root);
    for (int s = 0; s < P; ++s) {
      auto row = from_source<u32>(rows, s);
      if (comm.rank() != kGatherRoot) {
        EXPECT_TRUE(row.empty());
        continue;
      }
      ASSERT_EQ(row.size(), 1u);
      EXPECT_EQ(row[0], static_cast<u32>(s + 100));
    }
  });
}

TEST(Comm, ExchangeRecordsAlignedAndAccurate) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    comm.set_stage("phase_one");
    std::vector<std::vector<u64>> send(P);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(comm.rank() + 1), 7);
    }
    all_to_all(comm, send);
    comm.set_stage("phase_two");
    comm.barrier();
  });
  auto records = world.exchange_records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].seq, 0u);
    EXPECT_EQ(log[0].op, dc::CollectiveOp::kExchange);
    EXPECT_EQ(log[0].stage, "phase_one");
    // Rank r sent (r+1) u64s to each of P-1 peers; the self-destination
    // payload never touches the wire and is excluded from the record.
    EXPECT_EQ(log[0].total_bytes(), static_cast<u64>((r + 1) * 8 * (P - 1)));
    EXPECT_EQ(log[0].bytes_to_peer[static_cast<std::size_t>(r)], 0u);
    EXPECT_EQ(log[1].op, dc::CollectiveOp::kBarrier);
    EXPECT_EQ(log[1].stage, "phase_two");
    EXPECT_EQ(log[1].total_bytes(), 0u);
    EXPECT_GE(log[0].wall_seconds, 0.0);
  }
  world.clear_exchange_records();
  EXPECT_TRUE(world.exchange_records()[0].empty());
}

TEST(Comm, RecordSinkObservesCalls) {
  const int P = 2;
  dc::World world(P);
  std::atomic<int> observed{0};
  world.run([&](dc::Communicator& comm) {
    comm.set_record_sink([&](const dc::ExchangeRecord& rec) {
      if (rec.op == dc::CollectiveOp::kExchange) ++observed;
    });
    dc::allreduce_sum(comm, 1);
    dc::allreduce_sum(comm, 2);
  });
  EXPECT_EQ(observed.load(), 2 * P);
}

TEST(Comm, ManySuccessiveCollectivesStayAligned) {
  // Stress: a mixed sequence of collectives with data-dependent sizes.
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    u64 acc = static_cast<u64>(comm.rank());
    for (int round = 0; round < 30; ++round) {
      acc = dc::allreduce_sum(comm, acc) % 1000 + static_cast<u64>(comm.rank());
      std::vector<std::vector<u64>> send(P);
      for (int d = 0; d < P; ++d) {
        send[static_cast<std::size_t>(d)].assign((acc + static_cast<u64>(d)) % 5, acc);
      }
      std::vector<u64> recv;
      all_to_all(comm, send).append_to(recv);
      u64 sum = std::accumulate(recv.begin(), recv.end(), u64{0});
      auto sums = dc::allgatherv(comm, std::vector<u64>{sum});
      acc = *std::max_element(sums.begin(), sums.end());
    }
    // All ranks converge to the same value because every input to acc is a
    // collective result (plus the rank term removed by the final max).
    auto all = dc::allgatherv(comm, std::vector<u64>{acc});
    for (u64 v : all) EXPECT_EQ(v, all[0]);
  });
}

TEST(Comm, LargePayloadIntegrity) {
  const int P = 2;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    std::vector<std::vector<u64>> send(P);
    dibella::util::Xoshiro256 rng(static_cast<u64>(comm.rank()) + 1);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)].resize(100'000);
      for (auto& v : send[static_cast<std::size_t>(d)]) v = rng.next();
    }
    auto batch = all_to_all(comm, send);
    // Regenerate the peer's stream to verify integrity.
    for (int s = 0; s < P; ++s) {
      dibella::util::Xoshiro256 peer(static_cast<u64>(s) + 1);
      std::vector<u64> expect;
      for (int d = 0; d < P; ++d) {
        for (int i = 0; i < 100'000; ++i) {
          u64 v = peer.next();
          if (d == comm.rank()) expect.push_back(v);
        }
      }
      EXPECT_EQ(from_source<u64>(batch, s), expect);
    }
  });
}

// --- self-byte accounting ----------------------------------------------------

TEST(Comm, RecordsExcludeSelfBytesEverywhere) {
  // Self bytes never touch the wire, so every collective — a stage-style
  // exchange, the allgatherv and allreduce_sum helpers, and the barrier —
  // must record bytes_to_peer[self] == 0.
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    std::vector<std::vector<u64>> send(P);
    for (int d = 0; d < P; ++d) send[static_cast<std::size_t>(d)].assign(3, 7);
    all_to_all(comm, send);
    dc::allgatherv(comm, std::vector<u64>{1, 2});
    dc::allreduce_sum(comm, 9);
    comm.barrier();
  });
  auto records = world.exchange_records();
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    ASSERT_EQ(log.size(), 4u);
    for (const auto& rec : log) {
      EXPECT_EQ(rec.bytes_to_peer[static_cast<std::size_t>(r)], 0u)
          << dc::collective_op_name(rec.op) << " recorded self bytes on rank " << r;
    }
    // Exchange: 3 u64s to each of P-1 wire peers; allgatherv: 2; the
    // allreduce: 1; the barrier: none.
    EXPECT_EQ(log[0].total_bytes(), static_cast<u64>(3 * 8 * (P - 1)));
    EXPECT_EQ(log[1].total_bytes(), static_cast<u64>(2 * 8 * (P - 1)));
    EXPECT_EQ(log[2].total_bytes(), static_cast<u64>(8 * (P - 1)));
    EXPECT_EQ(log[3].total_bytes(), 0u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)].op, dc::CollectiveOp::kExchange);
    EXPECT_EQ(log[3].op, dc::CollectiveOp::kBarrier);
  }
}

TEST(Comm, AlltoallvFlatReportsSourceOffsets) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    // Rank r sends r+1 copies of its rank id to every destination.
    std::vector<std::vector<u32>> send(P);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(comm.rank() + 1),
                                               static_cast<u32>(comm.rank()));
    }
    auto batch = all_to_all(comm, send);
    std::vector<u32> flat;
    batch.append_to(flat);
    const auto& offsets = batch.src_offsets;  // byte offsets
    ASSERT_EQ(offsets.size(), static_cast<std::size_t>(P) + 1);
    EXPECT_EQ(offsets[0], 0u);
    EXPECT_EQ(offsets.back(), flat.size() * sizeof(u32));
    for (int s = 0; s < P; ++s) {
      u64 lo = offsets[static_cast<std::size_t>(s)] / sizeof(u32);
      u64 hi = offsets[static_cast<std::size_t>(s) + 1] / sizeof(u32);
      ASSERT_EQ(hi - lo, static_cast<u64>(s + 1)) << "from " << s;
      for (u64 i = lo; i < hi; ++i) EXPECT_EQ(flat[i], static_cast<u32>(s));
    }
  });
}

// --- the nonblocking batched Exchanger ---------------------------------------

TEST(Exchanger, DeliversBatchesInSourceRankOrder) {
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    dc::Exchanger ex(comm);
    // Two batches; values tag (src, batch).
    for (int batch = 0; batch < 2; ++batch) {
      for (int d = 0; d < P; ++d) {
        std::vector<u32> payload(static_cast<std::size_t>(comm.rank() + 1),
                                 static_cast<u32>(comm.rank() * 10 + batch));
        ex.post(d, payload);
      }
      ex.flush_async(/*done=*/batch == 1);
      auto got = ex.wait();
      EXPECT_EQ(got.all_done(), batch == 1);
      std::vector<u32> items;
      got.append_to(items);
      std::size_t at = 0;
      for (int s = 0; s < P; ++s) {
        // Source s's slice: s+1 copies of s*10+batch, in source-rank order.
        ASSERT_EQ(got.src_size_bytes(s), static_cast<u64>((s + 1) * sizeof(u32)));
        for (int i = 0; i <= s; ++i) {
          EXPECT_EQ(items[at++], static_cast<u32>(s * 10 + batch));
        }
      }
      EXPECT_EQ(at, items.size());
    }
  });
}

TEST(Exchanger, ChunkTrainsReassembleLargePayloads) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    // 64-byte chunks force multi-chunk trains with ragged tails.
    dc::Exchanger ex(comm, dc::Exchanger::Config{64});
    dibella::util::Xoshiro256 rng(static_cast<u64>(comm.rank()) + 41);
    std::vector<std::vector<u64>> sent(P);
    for (int d = 0; d < P; ++d) {
      sent[static_cast<std::size_t>(d)].resize(100 + rng.uniform_below(200));
      for (auto& v : sent[static_cast<std::size_t>(d)]) v = rng.next();
      ex.post(d, sent[static_cast<std::size_t>(d)]);
    }
    ex.flush_async(true);
    auto got = ex.wait();
    for (int s = 0; s < P; ++s) {
      // Regenerate the peer's stream to verify chunk reassembly.
      dibella::util::Xoshiro256 peer(static_cast<u64>(s) + 41);
      std::vector<u64> expect;
      for (int d = 0; d < P; ++d) {
        std::vector<u64> block(100 + peer.uniform_below(200));
        for (auto& v : block) v = peer.next();
        if (d == comm.rank()) expect = std::move(block);
      }
      std::vector<u64> items;
      got.append_from(s, items);
      EXPECT_EQ(items, expect);
    }
  });
}

TEST(Exchanger, OverlappedLoopMatchesBlockingLoop) {
  // run_exchange must deliver, batch for batch, exactly what a lock-step
  // pack -> all-to-all -> termination-vote loop delivers, including the
  // ragged termination (ranks run out of data at different times) — under
  // both of its schedules, with one exchange per round and no extra vote.
  const int P = 5;
  const int kBatches[] = {7, 2, 5, 1, 4};  // per-rank batch counts
  auto payload = [](int src, int batch, int dst) {
    return static_cast<u64>(src * 10000 + batch * 100 + dst);
  };

  // Reference, computed without any comm: in round b every rank receives,
  // in source-rank order, payload(s, b, me) from each source s that still
  // had a batch to send in that round; the loop runs max(kBatches) rounds.
  const int kRounds = *std::max_element(std::begin(kBatches), std::end(kBatches));
  std::vector<std::vector<u64>> expected_recv(P);
  for (int me = 0; me < P; ++me) {
    for (int b = 0; b < kRounds; ++b) {
      for (int s = 0; s < P; ++s) {
        if (b < kBatches[s]) expected_recv[static_cast<std::size_t>(me)].push_back(payload(s, b, me));
      }
    }
  }

  for (bool overlap : {true, false}) {
    SCOPED_TRACE(overlap ? "overlapped" : "bulk-synchronous");
    std::vector<std::vector<u64>> recv(P);
    std::vector<u64> batches(P, 0);
    dc::World world(P);
    world.run([&](dc::Communicator& comm) {
      int me = comm.rank();
      dc::Exchanger ex(comm, {/*chunk_bytes=*/1u << 20, overlap});
      int sent = 0;
      batches[static_cast<std::size_t>(me)] = dc::run_exchange(
          ex,
          [&] {
            for (int d = 0; d < P; ++d) {
              u64 v = payload(me, sent, d);
              ex.post(d, &v, 1);
            }
            ++sent;
            return sent < kBatches[me];
          },
          [&](const dc::RecvBatch& batch) {
            batch.append_to(recv[static_cast<std::size_t>(me)]);
          });
    });
    auto records = world.exchange_records();
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(recv[static_cast<std::size_t>(r)], expected_recv[static_cast<std::size_t>(r)])
          << "rank " << r;
      // One round per batch of the longest sender (7), each one Exchanger
      // flush — no separate termination vote.
      EXPECT_EQ(batches[static_cast<std::size_t>(r)], static_cast<u64>(kRounds));
      const auto& log = records[static_cast<std::size_t>(r)];
      ASSERT_EQ(log.size(), static_cast<std::size_t>(kRounds)) << "rank " << r;
      for (const auto& rec : log) EXPECT_EQ(rec.op, dc::CollectiveOp::kExchange);
    }
  }
}

TEST(Exchanger, RecordsHiddenWindowAndInterleavesWithCollectives) {
  const int P = 2;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    comm.set_stage("overlap_test");
    dc::Exchanger ex(comm);
    std::vector<u32> v{1, 2, 3};
    for (int d = 0; d < P; ++d) ex.post(d, v);
    ex.flush_async(true);
    // A reduction completed while the batch is in flight must coexist with
    // the pending exchange (distinct epoch tags).
    EXPECT_EQ(dc::allreduce_sum(comm, 1), static_cast<u64>(P));
    auto got = ex.wait();
    std::vector<u32> items;
    got.append_to(items);
    ASSERT_EQ(items.size(), static_cast<std::size_t>(P) * 3);
  });
  auto records = world.exchange_records();
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    // The reduction's exchange finishes before the outer batch's wait().
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].op, dc::CollectiveOp::kExchange);
    EXPECT_EQ(log[0].total_bytes(), static_cast<u64>(8 * (P - 1)));
    EXPECT_EQ(log[1].op, dc::CollectiveOp::kExchange);
    EXPECT_EQ(log[1].total_bytes(), static_cast<u64>(3 * 4 * (P - 1)));
    EXPECT_EQ(log[1].stage, "overlap_test");
    EXPECT_GE(log[1].hidden_wall_seconds, 0.0);
    EXPECT_GE(log[1].wall_seconds, 0.0);
  }
}

// --- collective misuse paths -------------------------------------------------

TEST(CommFailure, BarrierTimeoutAbortsRun) {
  // Rank 0 skips the second barrier entirely and leaves the region; the
  // stragglers' barrier must time out and abort instead of hanging.
  dc::World world(3, /*barrier_timeout_seconds=*/1.0);
  EXPECT_THROW(world.run([&](dc::Communicator& comm) {
                 comm.barrier();
                 if (comm.rank() != 0) comm.barrier();
               }),
               dibella::Error);
  // The world stays usable afterwards.
  int ok = 0;
  world.run([&](dc::Communicator& comm) {
    comm.barrier();
    if (comm.rank() == 0) ++ok;
  });
  EXPECT_EQ(ok, 1);
}

TEST(CommFailure, ExchangeTimeoutNamesTheAwaitedChunkAndItsCause) {
  // A receiver whose peer never flushes must say so — naming the awaited
  // (src, dst, epoch, chunk) — rather than blame a collective mismatch.
  auto timeout_message = [](int P, double timeout_s,
                            const std::function<void(dc::Communicator&)>& fn) {
    dc::World world(P, timeout_s);
    try {
      world.run(fn);
    } catch (const dibella::Error& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "the receiver must time out";
    return std::string();
  };

  std::string never = timeout_message(2, 0.5, [](dc::Communicator& comm) {
    if (comm.rank() == 0) return;  // never reaches the exchange
    dc::Exchanger ex(comm);
    ex.flush_async(true);
    ex.wait();
  });
  EXPECT_NE(never.find("rank 1 waited for chunk 0 of epoch 0 from rank 0"),
            std::string::npos) << never;
  EXPECT_NE(never.find("peer never arrived"), std::string::npos) << never;
  EXPECT_EQ(never.find("mismatch"), std::string::npos) << never;

  // Rank 0 spends epoch 0 on a barrier while rank 1 exchanges at epoch 0:
  // rank 0 has entered the awaited epoch without depositing for it, a
  // mismatched collective sequence. Rank 0 enters its barrier late, so rank
  // 1's wait is the first to time out (the fence would say the same).
  std::string skipped = timeout_message(2, 1.0, [](dc::Communicator& comm) {
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      comm.barrier();
      return;
    }
    dc::Exchanger ex(comm);
    ex.flush_async(true);
    ex.wait();
  });
  EXPECT_NE(skipped.find("rank 1 waited for chunk 0 of epoch 0 from rank 0"),
            std::string::npos) << skipped;
  EXPECT_NE(skipped.find("mismatched collective sequences"), std::string::npos)
      << skipped;
  EXPECT_NE(skipped.find("rank 0 is at epoch 0"), std::string::npos) << skipped;
}

TEST(CommFailure, MismatchedCollectiveKindsPoisonTheWorld) {
  // Rank 0 calls the barrier while the others exchange at the same epoch.
  // The barrier deposits nothing, so the exchange waits and the fence time
  // out; either way the run must abort naming a mismatched collective
  // sequence, not mix payloads or deadlock.
  dc::World world(3, /*barrier_timeout_seconds=*/1.0);
  try {
    world.run([&](dc::Communicator& comm) {
      if (comm.rank() == 0) {
        comm.barrier();
      } else {
        dc::allgatherv(comm, std::vector<u64>{1});
      }
    });
    FAIL() << "mismatched collectives must throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatched collective sequences"), std::string::npos)
        << e.what();
  }
}

TEST(CommFailure, MismatchedBarrierEpochPoisonsTheWorld) {
  // Rank 0 runs one collective before its barrier, the others none: all
  // ranks meet at the fence but disagree on the epoch — a mismatched
  // sequence that must abort, not silently desynchronize the record logs.
  dc::World world(2, /*barrier_timeout_seconds=*/1.5);
  try {
    world.run([&](dc::Communicator& comm) {
      if (comm.rank() == 0) dc::allgatherv(comm, std::vector<u64>{});
      comm.barrier();
      if (comm.rank() == 1) dc::allgatherv(comm, std::vector<u64>{});
    });
    FAIL() << "mismatched barrier epochs must throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos) << e.what();
  }
}
