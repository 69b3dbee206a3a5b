// Tests of the fault-injection harness (storage::FaultInjectingPageStore)
// and of the hardened read path above it: StoredIndexReader's capped
// retry loop and ParallelQueryEngine's per-query fault isolation. The
// anchor properties, swept across seeds, algorithms and declustering
// policies:
//   (a) transient faults are retried and the answers stay bit-identical
//       to the sequential executor's,
//   (b) a permanent fault fails only the queries that touch the dead
//       page, with a descriptive Status,
//   (c) the engine keeps serving subsequent queries normally afterwards.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/sequential_executor.h"
#include "exec/parallel_engine.h"
#include "exec/stored_index.h"
#include "parallel/parallel_tree.h"
#include "storage/fault_injection.h"
#include "storage/index_io.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "tests/test_seeds.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using core::AlgorithmKind;
using geometry::Point;
using parallel::DeclusterPolicy;
using storage::FaultInjectingPageStore;
using storage::FaultKind;
using storage::FaultSpec;

// --- FaultInjectingPageStore ----------------------------------------------

// A base store with deterministic content on each disk.
storage::MemPageStore MakeFilledStore(int disks, size_t bytes_per_disk) {
  storage::MemPageStore store(disks);
  common::Rng rng(7);
  std::vector<uint8_t> content(bytes_per_disk);
  for (int d = 0; d < disks; ++d) {
    for (auto& b : content) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    SQP_CHECK(store.WriteAt(d, 0, content.data(), content.size()).ok());
  }
  return store;
}

TEST(FaultInjectionStoreTest, SameSeedReplaysIdentically) {
  storage::MemPageStore base = MakeFilledStore(2, 8192);
  auto run = [&base](uint64_t seed) {
    FaultInjectingPageStore faulty(&base, seed);
    FaultSpec spec;
    spec.kind = FaultKind::kTransientError;
    spec.probability = 0.3;
    faulty.AddFault(spec);
    std::vector<uint8_t> buf(512);
    std::vector<int> outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes.push_back(
          faulty.ReadAt(i % 2, static_cast<uint64_t>(i % 16) * 512,
                        buf.data(), buf.size())
                  .ok()
              ? 1
              : 0);
    }
    return std::make_pair(outcomes, faulty.log());
  };
  const auto [outcomes_a, log_a] = run(99);
  const auto [outcomes_b, log_b] = run(99);
  EXPECT_EQ(outcomes_a, outcomes_b);
  ASSERT_EQ(log_a.size(), log_b.size());
  EXPECT_GT(log_a.size(), 10u);
  EXPECT_LT(log_a.size(), 120u);
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].read_seq, log_b[i].read_seq);
    EXPECT_EQ(log_a[i].offset, log_b[i].offset);
    EXPECT_EQ(log_a[i].disk, log_b[i].disk);
  }
  // A different seed draws a different fault set.
  const auto [outcomes_c, log_c] = run(100);
  EXPECT_NE(outcomes_a, outcomes_c);
}

TEST(FaultInjectionStoreTest, TargetsDiskAndOffsetRange) {
  storage::MemPageStore base = MakeFilledStore(3, 8192);
  FaultInjectingPageStore faulty(&base, 1);
  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;
  spec.disk = 1;
  spec.offset_lo = 1024;
  spec.offset_hi = 2048;
  faulty.AddFault(spec);

  std::vector<uint8_t> buf(1024);
  // Wrong disk, and right disk outside the range: clean.
  EXPECT_TRUE(faulty.ReadAt(0, 1024, buf.data(), 512).ok());
  EXPECT_TRUE(faulty.ReadAt(2, 1536, buf.data(), 512).ok());
  EXPECT_TRUE(faulty.ReadAt(1, 2048, buf.data(), 512).ok());
  EXPECT_TRUE(faulty.ReadAt(1, 0, buf.data(), 1024).ok());
  // Inside the range, including a read that merely overlaps it.
  EXPECT_FALSE(faulty.ReadAt(1, 1024, buf.data(), 512).ok());
  EXPECT_FALSE(faulty.ReadAt(1, 512, buf.data(), 1024).ok());
  const auto log = faulty.log();
  ASSERT_EQ(log.size(), 2u);
  for (const auto& e : log) EXPECT_EQ(e.disk, 1);
}

TEST(FaultInjectionStoreTest, MaxHitsDisarmsSpec) {
  storage::MemPageStore base = MakeFilledStore(1, 4096);
  FaultInjectingPageStore faulty(&base, 2);
  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;
  spec.max_hits = 3;
  faulty.AddFault(spec);
  std::vector<uint8_t> buf(256);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!faulty.ReadAt(0, 0, buf.data(), buf.size()).ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(faulty.stats().faults, 3u);
  EXPECT_EQ(faulty.stats().reads, 10u);
}

TEST(FaultInjectionStoreTest, TransientAndPermanentStatusClasses) {
  storage::MemPageStore base = MakeFilledStore(1, 4096);
  std::vector<uint8_t> buf(256);
  {
    FaultInjectingPageStore faulty(&base, 3);
    FaultSpec spec;
    spec.kind = FaultKind::kTransientError;
    faulty.AddFault(spec);
    const common::Status s = faulty.ReadAt(0, 0, buf.data(), buf.size());
    EXPECT_EQ(s.code(), common::StatusCode::kUnavailable);
    EXPECT_TRUE(exec::IsRetryableReadError(s)) << s;
    EXPECT_NE(s.message().find("transient"), std::string::npos) << s;
  }
  {
    FaultInjectingPageStore faulty(&base, 3);
    FaultSpec spec;
    spec.kind = FaultKind::kPermanentError;
    faulty.AddFault(spec);
    const common::Status s = faulty.ReadAt(0, 0, buf.data(), buf.size());
    EXPECT_EQ(s.code(), common::StatusCode::kInternal);
    EXPECT_FALSE(storage::IsCorruption(s)) << s;
    EXPECT_FALSE(exec::IsRetryableReadError(s)) << s;
    EXPECT_NE(s.message().find("permanent"), std::string::npos) << s;
  }
}

TEST(FaultInjectionStoreTest, BitFlipMutatesReturnedBufferOnly) {
  storage::MemPageStore base = MakeFilledStore(1, 4096);
  std::vector<uint8_t> truth(1024);
  ASSERT_TRUE(base.ReadAt(0, 0, truth.data(), truth.size()).ok());

  FaultInjectingPageStore faulty(&base, 4);
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  faulty.AddFault(spec);
  std::vector<uint8_t> buf(1024);
  ASSERT_TRUE(faulty.ReadAt(0, 0, buf.data(), buf.size()).ok());
  EXPECT_NE(std::memcmp(buf.data(), truth.data(), buf.size()), 0)
      << "bit flip left the buffer intact";
  // At most a burst of 8 bits differs.
  int flipped_bits = 0;
  for (size_t i = 0; i < buf.size(); ++i) {
    uint8_t diff = buf[i] ^ truth[i];
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_GE(flipped_bits, 1);
  EXPECT_LE(flipped_bits, 8);
  // The media itself was untouched: a clean re-read returns the truth.
  faulty.Reset();
  ASSERT_TRUE(faulty.ReadAt(0, 0, buf.data(), buf.size()).ok());
  EXPECT_EQ(std::memcmp(buf.data(), truth.data(), buf.size()), 0);
}

TEST(FaultInjectionStoreTest, TornReadZeroesTheTail) {
  storage::MemPageStore base(1);
  std::vector<uint8_t> ones(1024, 0xFF);
  ASSERT_TRUE(base.WriteAt(0, 0, ones.data(), ones.size()).ok());
  FaultInjectingPageStore faulty(&base, 5);
  FaultSpec spec;
  spec.kind = FaultKind::kTornRead;
  faulty.AddFault(spec);
  std::vector<uint8_t> buf(1024);
  ASSERT_TRUE(faulty.ReadAt(0, 0, buf.data(), buf.size()).ok());
  // Prefix intact, suffix zero, cut somewhere inside the buffer.
  size_t cut = buf.size();
  for (size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] != 0xFF) {
      cut = i;
      break;
    }
  }
  ASSERT_LT(cut, buf.size()) << "torn read left the buffer intact";
  for (size_t i = cut; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], 0) << "byte " << i << " after the cut is not zero";
  }
}

TEST(FaultInjectionStoreTest, LatencySpikeStallsTheRead) {
  storage::MemPageStore base = MakeFilledStore(1, 4096);
  FaultInjectingPageStore faulty(&base, 6);
  FaultSpec spec;
  spec.kind = FaultKind::kLatencySpike;
  spec.latency_s = 0.05;
  spec.max_hits = 1;
  faulty.AddFault(spec);
  std::vector<uint8_t> truth(256), buf(256);
  ASSERT_TRUE(base.ReadAt(0, 0, truth.data(), truth.size()).ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(faulty.ReadAt(0, 0, buf.data(), buf.size()).ok());
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(secs, 0.04);
  // The data is undamaged — a spike only costs time.
  EXPECT_EQ(std::memcmp(buf.data(), truth.data(), buf.size()), 0);
}

TEST(FaultInjectionStoreTest, BatchAttemptsEveryRequest) {
  storage::MemPageStore base = MakeFilledStore(2, 4096);
  std::vector<uint8_t> truth(256);
  ASSERT_TRUE(base.ReadAt(1, 512, truth.data(), truth.size()).ok());

  FaultInjectingPageStore faulty(&base, 7);
  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;
  spec.disk = 0;
  faulty.AddFault(spec);

  std::vector<uint8_t> a(256), b(256), c(256);
  const std::vector<storage::ReadRequest> requests = {
      {0, 0, a.data(), a.size()},      // faulted
      {1, 512, b.data(), b.size()},    // must still be read
      {0, 1024, c.data(), c.size()},   // also faulted
  };
  const common::Status s = faulty.ReadPages(requests);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), common::StatusCode::kUnavailable);
  // Every request was attempted: the clean one has its data, and both
  // faulty ones are in the log.
  EXPECT_EQ(std::memcmp(b.data(), truth.data(), b.size()), 0);
  EXPECT_EQ(faulty.stats().reads, 3u);
  EXPECT_EQ(faulty.stats().faults, 2u);
}

// --- StoredIndexReader retry policy ---------------------------------------

std::unique_ptr<parallel::ParallelRStarTree> BuildSmallIndex(
    uint64_t seed, int disks, DeclusterPolicy policy, bool mirrored,
    size_t n_points = 900) {
  const workload::Dataset data =
      workload::MakeClustered(n_points, 2, 8, 0.1, seed);
  rstar::TreeConfig tree_config;
  tree_config.dim = 2;
  tree_config.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = disks;
  dc.policy = policy;
  dc.mirrored = mirrored;
  dc.seed = seed;
  return workload::BuildParallelIndex(data, tree_config, dc);
}

// Fast retry policy for tests: full attempt budget, negligible sleeping.
exec::RetryPolicy FastRetry() {
  exec::RetryPolicy retry;
  retry.initial_backoff_s = 1e-6;
  retry.max_backoff_s = 1e-5;
  return retry;
}

TEST(ReaderRetryTest, TransientFaultIsRetriedToSuccess) {
  auto index = BuildSmallIndex(300, 4, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore store(4);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  FaultInjectingPageStore faulty(&store, 11);
  auto reader = exec::StoredIndexReader::Open(&faulty, FastRetry());
  ASSERT_TRUE(reader.ok()) << reader.status();

  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;
  spec.max_hits = 2;  // the first two attempts fail, the third succeeds
  faulty.AddFault(spec);

  const rstar::PageId root = index->tree().root();
  exec::IoFaultCounters counters;
  auto node = (*reader)->ReadFlatNode(root, &counters);
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_EQ(node->id(), root);
  EXPECT_EQ(node->size(), index->tree().node(root).entries.size());
  EXPECT_EQ(counters.faults, 2u);
  EXPECT_GE(counters.retries, 2u);
  const exec::ReaderFaultTotals totals = (*reader)->fault_totals();
  EXPECT_EQ(totals.faults, 2u);
  EXPECT_EQ(totals.failed_records, 0u);
}

TEST(ReaderRetryTest, CorruptionHealsOnRetry) {
  auto index = BuildSmallIndex(301, 3, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false);
  storage::MemPageStore store(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  FaultInjectingPageStore faulty(&store, 12);
  auto reader = exec::StoredIndexReader::Open(&faulty, FastRetry());
  ASSERT_TRUE(reader.ok());

  // One in-flight bit flip: the first decode fails its checksum, the
  // re-read returns pristine bytes.
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.max_hits = 1;
  faulty.AddFault(spec);

  const rstar::PageId root = index->tree().root();
  exec::IoFaultCounters counters;
  auto node = (*reader)->ReadFlatNode(root, &counters);
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_EQ(counters.faults, 1u);
  EXPECT_GE(counters.retries, 1u);
  // The decoded node is bit-identical to the in-memory one.
  const rstar::Node& mem = index->tree().node(root);
  ASSERT_EQ(node->size(), mem.entries.size());
  for (size_t e = 0; e < mem.entries.size(); ++e) {
    EXPECT_EQ(node->child(e), mem.entries[e].child);
    EXPECT_EQ(node->RectOf(e).lo(), mem.entries[e].mbr.lo());
    EXPECT_EQ(node->RectOf(e).hi(), mem.entries[e].mbr.hi());
  }
}

TEST(ReaderRetryTest, PermanentFaultFailsFastWithDescriptiveStatus) {
  auto index = BuildSmallIndex(302, 3, DeclusterPolicy::kRandom,
                               /*mirrored=*/false);
  storage::MemPageStore store(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  FaultInjectingPageStore faulty(&store, 13);
  auto reader = exec::StoredIndexReader::Open(&faulty, FastRetry());
  ASSERT_TRUE(reader.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPermanentError;
  faulty.AddFault(spec);

  auto node = (*reader)->ReadFlatNode(index->tree().root());
  ASSERT_FALSE(node.ok());
  EXPECT_EQ(node.status().code(), common::StatusCode::kInternal);
  EXPECT_NE(node.status().message().find("injected permanent I/O error"),
            std::string::npos)
      << node.status();
  // Fail-fast: one injector hit, no storm of useless retries.
  EXPECT_EQ(faulty.stats().faults, 1u);
}

TEST(ReaderRetryTest, RetriesAreCappedAndReported) {
  auto index = BuildSmallIndex(303, 3, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore store(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  FaultInjectingPageStore faulty(&store, 14);
  exec::RetryPolicy retry = FastRetry();
  retry.max_attempts = 3;
  auto reader = exec::StoredIndexReader::Open(&faulty, retry);
  ASSERT_TRUE(reader.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;  // never heals
  faulty.AddFault(spec);

  exec::IoFaultCounters counters;
  auto node = (*reader)->ReadFlatNode(index->tree().root(), &counters);
  ASSERT_FALSE(node.ok());
  EXPECT_EQ(node.status().code(), common::StatusCode::kUnavailable);
  EXPECT_NE(node.status().message().find("gave up after 3 attempt(s)"),
            std::string::npos)
      << node.status();
  // One batched attempt plus the capped per-record loop.
  EXPECT_EQ(counters.faults, 4u);
  const exec::ReaderFaultTotals totals = (*reader)->fault_totals();
  EXPECT_EQ(totals.failed_records, 1u);
}

TEST(ReaderRetryTest, RejectsZeroAttempts) {
  auto index = BuildSmallIndex(304, 2, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false, /*n_points=*/300);
  storage::MemPageStore store(2);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  exec::RetryPolicy retry;
  retry.max_attempts = 0;
  EXPECT_FALSE(exec::StoredIndexReader::Open(&store, retry).ok());
}

TEST(ReaderRetryTest, BatchWithOneBadRecordOnlyRereadsThatRecord) {
  auto index = BuildSmallIndex(305, 4, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore store(4);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  FaultInjectingPageStore faulty(&store, 15);
  auto reader = exec::StoredIndexReader::Open(&faulty, FastRetry());
  ASSERT_TRUE(reader.ok());

  const std::vector<rstar::PageId> live = index->tree().LiveNodeIds();
  ASSERT_GE(live.size(), 4u);
  // Flip bits on exactly one record of the batch.
  const rstar::PageId victim = live[live.size() / 2];
  const auto loc = (*reader)->LocationOf(victim);
  ASSERT_TRUE(loc.ok());
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.disk = loc->disk;
  spec.offset_lo = loc->offset;
  spec.offset_hi = loc->offset + 1;
  spec.max_hits = 1;
  faulty.AddFault(spec);

  std::vector<core::FlatNode> nodes;
  exec::IoFaultCounters counters;
  ASSERT_TRUE((*reader)->ReadFlatNodes(live, &nodes, &counters).ok());
  ASSERT_EQ(nodes.size(), live.size());
  EXPECT_EQ(counters.faults, 1u);
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(nodes[i].id(), index->tree().node(live[i]).id);
    EXPECT_EQ(nodes[i].size(), index->tree().node(live[i]).entries.size());
  }
}

// --- ParallelQueryEngine under faults -------------------------------------

std::vector<Point> QueriesFor(uint64_t seed, size_t n) {
  std::vector<Point> queries;
  common::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(Point{static_cast<geometry::Coord>(rng.Uniform()),
                            static_cast<geometry::Coord>(rng.Uniform())});
  }
  return queries;
}

void ExpectBitIdentical(const parallel::ParallelRStarTree& index,
                        const exec::QueryOutcome& got, const Point& q,
                        size_t k, AlgorithmKind kind, const char* label) {
  ASSERT_TRUE(got.status.ok())
      << label << " " << core::AlgorithmName(kind) << ": " << got.status;
  auto algo =
      core::MakeAlgorithm(kind, index.tree(), q, k, index.num_disks());
  core::RunToCompletion(index.tree(), algo.get());
  const std::vector<core::Neighbor> want = algo->result().Sorted();
  ASSERT_EQ(got.neighbors.size(), want.size())
      << label << " " << core::AlgorithmName(kind);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.neighbors[i].object, want[i].object)
        << label << " " << core::AlgorithmName(kind) << " rank " << i;
    ASSERT_EQ(got.neighbors[i].dist_sq, want[i].dist_sq)
        << label << " " << core::AlgorithmName(kind) << " rank " << i;
  }
}

constexpr AlgorithmKind kAllAlgorithms[] = {
    AlgorithmKind::kBbss, AlgorithmKind::kFpss, AlgorithmKind::kCrss,
    AlgorithmKind::kWoptss};

// (a) Transient faults — EIO, bit flips, torn reads — are absorbed by the
// retry policy: every query succeeds with bit-identical results. Swept
// across seeds, declustering policies and all four algorithms.
TEST(EngineFaultTest, TransientFaultsRetriedBitIdenticalAcrossSweep) {
  constexpr DeclusterPolicy kPolicies[] = {
      DeclusterPolicy::kProximityIndex, DeclusterPolicy::kRoundRobin,
      DeclusterPolicy::kRandom, DeclusterPolicy::kDataBalance,
      DeclusterPolicy::kAreaBalance};
  uint64_t total_retries = 0;
  for (uint64_t seed = 1; seed <= test_seeds::kFaultSweepSeeds; ++seed) {
    const DeclusterPolicy policy = kPolicies[seed % 5];
    const int disks = 3 + static_cast<int>(seed % 4);
    auto index = BuildSmallIndex(seed, disks, policy, seed % 2 == 0);
    storage::MemPageStore store(disks);
    ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
    FaultInjectingPageStore faulty(&store,
                                   test_seeds::FaultInjectorSeed(seed));

    exec::EngineOptions options;
    // Serial I/O: every read happens on the one query thread, so the
    // injector's RNG draws replay in the same order every run and this
    // sweep is exactly reproducible. The per-disk worker path runs under
    // faults in the interleaving-robust tests below and in the stress
    // suite.
    options.query_threads = 1;
    options.serial_io = true;
    options.cache_pages = 0;  // every fetch touches the faulty media
    options.retry = FastRetry();
    auto engine = exec::ParallelQueryEngine::Create(*index, &faulty, options);
    ASSERT_TRUE(engine.ok()) << engine.status();

    for (FaultKind kind : {FaultKind::kBitFlip, FaultKind::kTornRead,
                           FaultKind::kTransientError}) {
      FaultSpec spec;
      spec.kind = kind;
      spec.probability = 0.03;
      faulty.AddFault(spec);
    }

    const std::string label = "seed " + std::to_string(seed);
    const std::vector<Point> points = QueriesFor(seed, 3);
    const size_t k = 1 + seed % 20;
    std::vector<exec::EngineQuery> queries;
    for (AlgorithmKind kind : kAllAlgorithms) {
      for (const Point& q : points) queries.push_back({q, k, kind});
    }
    const std::vector<exec::QueryOutcome> outcomes =
        (*engine)->RunBatch(queries);
    size_t qi = 0;
    for (AlgorithmKind kind : kAllAlgorithms) {
      for (const Point& q : points) {
        const exec::QueryOutcome& got = outcomes[qi++];
        ExpectBitIdentical(*index, got, q, k, kind, label.c_str());
        total_retries += got.io_retries;
      }
    }
    EXPECT_GT(faulty.stats().faults, 0u) << label;
  }
  // The sweep genuinely exercised the retry path, not just clean reads.
  EXPECT_GT(total_retries, 0u);
}

// (b) + (c): a permanently dead page fails exactly the queries that read
// it, with a descriptive Status; once the spec disarms (the "drive" is
// replaced), the same engine serves the same queries bit-identically.
TEST(EngineFaultTest, PermanentFaultFailsOnlyAffectedQueriesThenRecovers) {
  constexpr DeclusterPolicy kPolicies[] = {DeclusterPolicy::kProximityIndex,
                                           DeclusterPolicy::kRoundRobin,
                                           DeclusterPolicy::kAreaBalance};
  int algo_index = 0;
  for (AlgorithmKind kind : kAllAlgorithms) {
    const uint64_t seed =
        test_seeds::kPermanentFaultSeedBase + static_cast<uint64_t>(algo_index);
    const DeclusterPolicy policy = kPolicies[algo_index % 3];
    ++algo_index;
    auto index = BuildSmallIndex(seed, 4, policy, /*mirrored=*/false);
    storage::MemPageStore store(4);
    ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
    FaultInjectingPageStore faulty(&store, seed);

    exec::EngineOptions options;
    options.query_threads = 1;
    options.cache_pages = 0;
    options.retry = FastRetry();
    auto engine = exec::ParallelQueryEngine::Create(*index, &faulty, options);
    ASSERT_TRUE(engine.ok()) << engine.status();

    // Kill the root record: with no cache, the first query must die on it.
    const auto root_loc =
        (*engine)->reader().LocationOf((*engine)->reader().layout().root);
    ASSERT_TRUE(root_loc.ok());
    FaultSpec spec;
    spec.kind = FaultKind::kPermanentError;
    spec.disk = root_loc->disk;
    spec.offset_lo = root_loc->offset;
    spec.offset_hi = root_loc->offset + 1;
    spec.max_hits = 1;
    faulty.AddFault(spec);

    const std::vector<Point> points = QueriesFor(seed, 4);
    std::vector<exec::EngineQuery> queries;
    for (const Point& q : points) queries.push_back({q, 8, kind});
    const std::vector<exec::QueryOutcome> outcomes =
        (*engine)->RunBatch(queries);
    ASSERT_EQ(outcomes.size(), queries.size());

    // The batch completed; exactly the first query (the one that consumed
    // the dead page's single hit) failed, descriptively.
    ASSERT_FALSE(outcomes[0].status.ok()) << core::AlgorithmName(kind);
    EXPECT_NE(outcomes[0].status.message().find("injected permanent"),
              std::string::npos)
        << outcomes[0].status;
    EXPECT_TRUE(outcomes[0].neighbors.empty());
    for (size_t i = 1; i < outcomes.size(); ++i) {
      ExpectBitIdentical(*index, outcomes[i], points[i], 8, kind,
                         "after permanent fault");
    }

    // (c) The engine — same pools, same cache — serves a fresh batch
    // normally, including the query that previously failed.
    const std::vector<exec::QueryOutcome> again =
        (*engine)->RunBatch(queries);
    for (size_t i = 0; i < again.size(); ++i) {
      ExpectBitIdentical(*index, again[i], points[i], 8, kind,
                         "recovered engine");
    }
  }
}

// A dead *disk* (every read on it fails permanently) degrades exactly the
// queries that need it while the other disks' workers keep draining.
TEST(EngineFaultTest, DeadDiskDoesNotPoisonThePool) {
  auto index = BuildSmallIndex(500, 5, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false, /*n_points=*/1200);
  storage::MemPageStore store(5);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  FaultInjectingPageStore faulty(&store, 77);

  exec::EngineOptions options;
  options.query_threads = 4;
  options.cache_pages = 0;
  options.retry = FastRetry();
  auto engine = exec::ParallelQueryEngine::Create(*index, &faulty, options);
  ASSERT_TRUE(engine.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPermanentError;
  spec.disk = 2;
  faulty.AddFault(spec);

  std::vector<exec::EngineQuery> queries;
  for (const Point& q : QueriesFor(501, 40)) {
    queries.push_back({q, 10, AlgorithmKind::kCrss});
  }
  const std::vector<exec::QueryOutcome> outcomes =
      (*engine)->RunBatch(queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  size_t failed = 0;
  for (const exec::QueryOutcome& o : outcomes) {
    if (!o.status.ok()) ++failed;
  }
  // The root lives on some disk; queries die when their walk first needs
  // disk 2. Some must fail, and unless the root itself is on disk 2,
  // queries whose walk avoids it may survive. Crucially: no hang, no
  // crash, and afterwards the engine is fully serviceable.
  EXPECT_GT(failed, 0u);

  faulty.Reset();
  for (size_t i = 0; i < queries.size(); ++i) {
    const exec::QueryOutcome o = (*engine)->RunQuery(queries[i]);
    ExpectBitIdentical(*index, o, queries[i].point, queries[i].k,
                       queries[i].algo, "after dead disk");
  }
}

// The silent-poisoning regression: persistent media corruption must fail
// queries while it lasts and leave NOTHING bad behind in the page cache —
// after the media heals, the very same engine returns correct answers.
TEST(EngineFaultTest, CacheIsNeverPoisonedByCorruptPages) {
  auto index = BuildSmallIndex(600, 3, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore store(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());

  exec::EngineOptions options;
  options.query_threads = 2;
  options.cache_pages = 4096;  // everything that decodes OK stays resident
  options.retry = FastRetry();
  auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
  ASSERT_TRUE(engine.ok());

  // Corrupt the root record *on the media* (not in flight): every retry
  // re-reads the same bad bytes, so the checksum can never pass.
  const auto root_loc =
      (*engine)->reader().LocationOf((*engine)->reader().layout().root);
  ASSERT_TRUE(root_loc.ok());
  std::vector<uint8_t> pristine(64);
  ASSERT_TRUE(store.ReadAt(root_loc->disk, root_loc->offset,
                           pristine.data(), pristine.size())
                  .ok());
  std::vector<uint8_t> garbage = pristine;
  for (size_t i = storage::kPageHeaderBytes; i < garbage.size(); ++i) {
    garbage[i] ^= 0xA5;
  }
  ASSERT_TRUE(store.WriteAt(root_loc->disk, root_loc->offset,
                            garbage.data(), garbage.size())
                  .ok());

  const exec::EngineQuery query{Point{0.4f, 0.6f}, 12,
                                AlgorithmKind::kCrss};
  const exec::QueryOutcome bad = (*engine)->RunQuery(query);
  ASSERT_FALSE(bad.status.ok());
  EXPECT_TRUE(storage::IsCorruption(bad.status)) << bad.status;
  EXPECT_NE(bad.status.message().find("gave up after"), std::string::npos)
      << bad.status;
  // The reader names the record only when a check fails; the name keeps
  // its format.
  const std::string record_name =
      "disk " + std::to_string(root_loc->disk) + " node record for page " +
      std::to_string((*engine)->reader().layout().root) +
      ": checksum mismatch";
  EXPECT_NE(bad.status.message().find(record_name), std::string::npos)
      << bad.status;
  EXPECT_GT(bad.io_retries, 0u);

  // Heal the media. If the failed decode had been cached, this query
  // would still fail (or worse, return a wrong answer); instead it must
  // be bit-identical to the sequential executor.
  ASSERT_TRUE(store.WriteAt(root_loc->disk, root_loc->offset,
                            pristine.data(), pristine.size())
                  .ok());
  const exec::QueryOutcome good = (*engine)->RunQuery(query);
  ExpectBitIdentical(*index, good, query.point, query.k, query.algo,
                     "healed media");
  // And only clean reads from here on: the cache now serves the root.
  const exec::QueryOutcome cached = (*engine)->RunQuery(query);
  ExpectBitIdentical(*index, cached, query.point, query.k, query.algo,
                     "cached after heal");
  EXPECT_EQ(cached.io_faults, 0u);
}

// Latency spikes cost wall-clock time but never correctness.
TEST(EngineFaultTest, LatencySpikesOnlySlowQueriesDown) {
  auto index = BuildSmallIndex(700, 4, DeclusterPolicy::kDataBalance,
                               /*mirrored=*/false);
  storage::MemPageStore store(4);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  FaultInjectingPageStore faulty(&store, 19);

  exec::EngineOptions options;
  options.query_threads = 2;
  options.cache_pages = 0;
  auto engine = exec::ParallelQueryEngine::Create(*index, &faulty, options);
  ASSERT_TRUE(engine.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kLatencySpike;
  spec.probability = 0.2;
  spec.latency_s = 0.001;
  faulty.AddFault(spec);

  const std::vector<Point> points = QueriesFor(701, 6);
  for (const Point& q : points) {
    const exec::QueryOutcome o =
        (*engine)->RunQuery({q, 10, AlgorithmKind::kBbss});
    ExpectBitIdentical(*index, o, q, 10, AlgorithmKind::kBbss,
                       "latency spikes");
    EXPECT_EQ(o.io_faults, 0u);  // a stall is not a fault
  }
  EXPECT_GT(faulty.stats()
                .by_kind[static_cast<int>(FaultKind::kLatencySpike)],
            0u);
}

// --- Write-side power cuts ------------------------------------------------

TEST(PowerCutTest, WriteOpClockCountsEveryWriteOperation) {
  storage::MemPageStore base(2);
  FaultInjectingPageStore faulty(&base, 1);
  EXPECT_EQ(faulty.write_ops(), 0u);
  const uint8_t b[4] = {1, 2, 3, 4};
  ASSERT_TRUE(faulty.WriteAt(0, 0, b, 4).ok());
  ASSERT_TRUE(faulty.WriteAt(1, 0, b, 4).ok());
  ASSERT_TRUE(faulty.Sync().ok());
  ASSERT_TRUE(faulty.Truncate(1).ok());
  EXPECT_EQ(faulty.write_ops(), 4u);
  EXPECT_EQ(faulty.stats().write_ops, 4u);
  // Reads do not advance the clock.
  uint8_t r[4];
  ASSERT_TRUE(faulty.ReadAt(0, 0, r, 4).ok());
  EXPECT_EQ(faulty.write_ops(), 4u);
}

TEST(PowerCutTest, CutDropsTheBoundaryWriteAndFailsTheRest) {
  storage::MemPageStore base(1);
  FaultInjectingPageStore faulty(&base, 1);
  const uint8_t ones[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  const uint8_t twos[8] = {2, 2, 2, 2, 2, 2, 2, 2};
  faulty.ArmPowerCut(/*allow_ops=*/1, /*tear_first=*/false);

  ASSERT_TRUE(faulty.WriteAt(0, 0, ones, 8).ok());   // op 1: allowed
  // Op 2 is the cut boundary: silently dropped — the caller sees OK (the
  // machine died before the write reached media, not an I/O error).
  ASSERT_TRUE(faulty.WriteAt(0, 8, twos, 8).ok());
  // Every write operation after the cut fails.
  EXPECT_FALSE(faulty.WriteAt(0, 16, ones, 8).ok());
  EXPECT_FALSE(faulty.Sync().ok());
  EXPECT_FALSE(faulty.Truncate(0).ok());

  // Reads still serve the surviving bytes: op 1 landed, op 2 did not.
  EXPECT_EQ(base.disk_bytes(0).size(), 8u);
  uint8_t r[8];
  ASSERT_TRUE(faulty.ReadAt(0, 0, r, 8).ok());
  EXPECT_EQ(std::memcmp(r, ones, 8), 0);
  // Every affected op logs an event: the dropped boundary write plus the
  // three refused operations after it.
  EXPECT_EQ(faulty.stats().by_kind[static_cast<int>(FaultKind::kPowerCut)],
            4u);

  // Disarming restores normal service (the next recovery generation).
  faulty.DisarmPowerCut();
  ASSERT_TRUE(faulty.WriteAt(0, 8, twos, 8).ok());
  EXPECT_EQ(base.disk_bytes(0).size(), 16u);
}

TEST(PowerCutTest, TearFirstWritesARandomPrefix) {
  storage::MemPageStore base(1);
  FaultInjectingPageStore faulty(&base, /*seed=*/7);
  std::vector<uint8_t> payload(64, 0xAB);
  faulty.ArmPowerCut(/*allow_ops=*/0, /*tear_first=*/true);
  ASSERT_TRUE(faulty.WriteAt(0, 0, payload.data(), payload.size()).ok());
  // A strict prefix landed; everything after it never reached media.
  const std::vector<uint8_t>& bytes = base.disk_bytes(0);
  EXPECT_LT(bytes.size(), payload.size());
  for (uint8_t b : bytes) EXPECT_EQ(b, 0xAB);
  EXPECT_FALSE(faulty.Sync().ok());
}

TEST(PowerCutTest, SyncAtTheBoundarySimplyFails) {
  storage::MemPageStore base(1);
  FaultInjectingPageStore faulty(&base, 1);
  const uint8_t b[4] = {9, 9, 9, 9};
  faulty.ArmPowerCut(/*allow_ops=*/1, /*tear_first=*/false);
  ASSERT_TRUE(faulty.WriteAt(0, 0, b, 4).ok());
  // The boundary op is a Sync, not a WriteAt: nothing to drop or tear —
  // it fails, and so does everything after.
  EXPECT_FALSE(faulty.Sync().ok());
  EXPECT_FALSE(faulty.WriteAt(0, 4, b, 4).ok());
  // The pre-cut write survives (MemPageStore bytes are durable once
  // written; the failed sync models dying before acknowledging).
  EXPECT_EQ(base.disk_bytes(0).size(), 4u);
}

TEST(PowerCutTest, RearmReplacesTheSchedule) {
  storage::MemPageStore base(1);
  FaultInjectingPageStore faulty(&base, 1);
  const uint8_t b[2] = {5, 5};
  faulty.ArmPowerCut(/*allow_ops=*/0, /*tear_first=*/false);
  ASSERT_TRUE(faulty.WriteAt(0, 0, b, 2).ok());  // dropped
  EXPECT_EQ(base.disk_bytes(0).size(), 0u);
  // Re-arm: two more ops allowed from NOW (the clock keeps running).
  faulty.ArmPowerCut(/*allow_ops=*/2, /*tear_first=*/false);
  ASSERT_TRUE(faulty.WriteAt(0, 0, b, 2).ok());
  ASSERT_TRUE(faulty.WriteAt(0, 2, b, 2).ok());
  ASSERT_TRUE(faulty.WriteAt(0, 4, b, 2).ok());  // boundary: dropped
  EXPECT_FALSE(faulty.Sync().ok());
  EXPECT_EQ(base.disk_bytes(0).size(), 4u);
}

// --- PageStoreSlice -------------------------------------------------------

TEST(PageStoreSliceTest, RenumbersDisksAndDelegates) {
  storage::MemPageStore base(4);
  storage::PageStoreSlice head(&base, 0, 3);
  storage::PageStoreSlice tail(&base, 3, 1);
  EXPECT_EQ(head.num_disks(), 3);
  EXPECT_EQ(tail.num_disks(), 1);

  const uint8_t a[4] = {0xA, 0xA, 0xA, 0xA};
  const uint8_t z[4] = {0xF, 0xF, 0xF, 0xF};
  ASSERT_TRUE(head.WriteAt(2, 0, a, 4).ok());  // base disk 2
  ASSERT_TRUE(tail.WriteAt(0, 0, z, 4).ok());  // base disk 3
  EXPECT_EQ(base.disk_bytes(2)[0], 0xA);
  EXPECT_EQ(base.disk_bytes(3)[0], 0xF);
  auto head_size = head.SizeOf(2);
  ASSERT_TRUE(head_size.ok());
  EXPECT_EQ(*head_size, 4u);
  auto tail_size = tail.SizeOf(0);
  ASSERT_TRUE(tail_size.ok());
  EXPECT_EQ(*tail_size, 4u);

  uint8_t r[4];
  ASSERT_TRUE(tail.ReadAt(0, 0, r, 4).ok());
  EXPECT_EQ(std::memcmp(r, z, 4), 0);
  // Batched reads remap per request (and still merge underneath).
  uint8_t r2[4];
  const std::vector<storage::ReadRequest> requests = {
      {2, 0, r2, 4}};
  ASSERT_TRUE(head.ReadPages(requests).ok());
  EXPECT_EQ(std::memcmp(r2, a, 4), 0);

  // Out-of-range slice disks are rejected, not forwarded.
  EXPECT_FALSE(head.ReadAt(3, 0, r, 4).ok());
  EXPECT_FALSE(tail.WriteAt(1, 0, a, 4).ok());
}

TEST(PageStoreSliceTest, SlicesShareOneFaultClock) {
  // The crash-harness composition: ONE fault decorator over a (D+1)-disk
  // array, sliced into a D-disk index view and a 1-disk WAL view, so
  // writes through either view advance the same power-cut clock.
  storage::MemPageStore base(3);
  FaultInjectingPageStore faulty(&base, 1);
  storage::PageStoreSlice data(&faulty, 0, 2);
  storage::PageStoreSlice wal(&faulty, 2, 1);

  const uint8_t b[2] = {1, 2};
  faulty.ArmPowerCut(/*allow_ops=*/2, /*tear_first=*/false);
  ASSERT_TRUE(data.WriteAt(0, 0, b, 2).ok());  // op 1 (data view)
  ASSERT_TRUE(wal.WriteAt(0, 0, b, 2).ok());   // op 2 (wal view)
  // Op 3 — through the data view — is the boundary: dropped.
  ASSERT_TRUE(data.WriteAt(1, 0, b, 2).ok());
  EXPECT_FALSE(wal.Sync().ok());  // and the WAL view is dead too
  EXPECT_EQ(base.disk_bytes(0).size(), 2u);
  EXPECT_EQ(base.disk_bytes(2).size(), 2u);
  EXPECT_EQ(base.disk_bytes(1).size(), 0u);  // the dropped boundary write
  EXPECT_EQ(faulty.write_ops(), 4u);
}

}  // namespace
}  // namespace sqp
