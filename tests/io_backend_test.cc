// Tests of the io_uring-native I/O backend (exec::UringIoBackend) and the
// hot-neighbor page placement pass (storage::SaveIndexOptions).
//
// The headline invariant: query answers are bit-identical across I/O
// backends — threads (DiskIoPool) and uring (completion reactor) — for
// every algorithm and seed, over real files, throttled media and
// fault-injecting stores alike. Suites whose names start with Uring are
// skipped (with the probe's reason) on kernels without io_uring;
// SQP_FORCE_NO_URING=1 exercises the engine's graceful fallback.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/sequential_executor.h"
#include "exec/parallel_engine.h"
#include "exec/stored_index.h"
#include "exec/uring_backend.h"
#include "storage/fault_injection.h"
#include "storage/index_io.h"
#include "storage/page_store.h"
#include "tests/test_seeds.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using core::AlgorithmKind;
using exec::ProbeIoUring;
using exec::UringIoBackend;
using geometry::Point;
using parallel::DeclusterPolicy;

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

std::vector<Point> QueriesFor(uint64_t seed, size_t n) {
  std::vector<Point> queries;
  common::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(Point{static_cast<geometry::Coord>(rng.Uniform()),
                            static_cast<geometry::Coord>(rng.Uniform())});
  }
  return queries;
}

std::vector<exec::EngineQuery> AllAlgoQueries(const std::vector<Point>& qs,
                                              size_t k) {
  constexpr AlgorithmKind kAll[] = {AlgorithmKind::kBbss,
                                    AlgorithmKind::kFpss,
                                    AlgorithmKind::kCrss,
                                    AlgorithmKind::kWoptss};
  std::vector<exec::EngineQuery> out;
  for (AlgorithmKind kind : kAll) {
    for (const Point& q : qs) out.push_back({q, k, kind});
  }
  return out;
}

// Bit-identical outcomes: same status class, same neighbors (objects and
// squared distances), same page and step counts.
void ExpectIdenticalOutcomes(const std::vector<exec::QueryOutcome>& a,
                             const std::vector<exec::QueryOutcome>& b,
                             const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].status.code(), b[i].status.code())
        << label << " query " << i << ": " << a[i].status << " vs "
        << b[i].status;
    ASSERT_EQ(a[i].neighbors.size(), b[i].neighbors.size())
        << label << " query " << i;
    for (size_t r = 0; r < a[i].neighbors.size(); ++r) {
      ASSERT_EQ(a[i].neighbors[r].object, b[i].neighbors[r].object)
          << label << " query " << i << " rank " << r;
      ASSERT_EQ(a[i].neighbors[r].dist_sq, b[i].neighbors[r].dist_sq)
          << label << " query " << i << " rank " << r;
    }
    EXPECT_EQ(a[i].pages_fetched, b[i].pages_fetched)
        << label << " query " << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << label << " query " << i;
  }
}

std::string TempDir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// --- Probe ----------------------------------------------------------------

TEST(UringProbeTest, ReportsDetailEitherWay) {
  const exec::UringProbe probe = ProbeIoUring();
  EXPECT_FALSE(probe.detail.empty());
  std::cout << "io_uring probe: " << (probe.available ? "available" : "OFF")
            << " (" << probe.detail << ")\n";
}

// --- Bit-identity across backends -----------------------------------------

// The sweep: across seeds, algorithms, declustering policies and cache
// sizes, the uring engine's answers are bit-identical to the threads
// engine's AND to the sequential executor's — over real files, where the
// batches genuinely ride the ring.
TEST(UringBackendTest, BitIdenticalToThreadsAcrossSeeds) {
  const exec::UringProbe probe = ProbeIoUring();
  if (!probe.available) {
    GTEST_SKIP() << "io_uring unavailable: " << probe.detail;
  }
  constexpr DeclusterPolicy kPolicies[] = {
      DeclusterPolicy::kProximityIndex, DeclusterPolicy::kRoundRobin,
      DeclusterPolicy::kRandom, DeclusterPolicy::kDataBalance,
      DeclusterPolicy::kAreaBalance};
  const std::string dir = TempDir("sqp_uring_identity_test");
  for (uint64_t seed = 1; seed <= test_seeds::kPropertySweepSeeds; ++seed) {
    const DeclusterPolicy policy = kPolicies[seed % 5];
    const int disks = 3 + static_cast<int>(seed % 6);
    auto index = BuildSmallIndex(seed, disks, policy, seed % 3 == 0);
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(storage::SaveIndexToDir(*index, dir).ok());
    auto store = storage::FilePageStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status();

    exec::EngineOptions options;
    options.query_threads = 4;
    options.cache_pages = seed % 2 == 0 ? 256 : 16;
    options.cache_shards = 4;
    auto threads_engine =
        exec::ParallelQueryEngine::Create(*index, store->get(), options);
    ASSERT_TRUE(threads_engine.ok()) << threads_engine.status();
    options.io_backend = exec::IoBackendKind::kUring;
    auto uring_engine =
        exec::ParallelQueryEngine::Create(*index, store->get(), options);
    ASSERT_TRUE(uring_engine.ok()) << uring_engine.status();
    ASSERT_STREQ((*uring_engine)->io_backend_name(), "uring")
        << (*uring_engine)->io_backend_fallback_reason();

    const auto queries = AllAlgoQueries(QueriesFor(seed, 3), 1 + seed % 30);
    const auto threads_answers = (*threads_engine)->RunBatch(queries);
    const auto uring_answers = (*uring_engine)->RunBatch(queries);
    const std::string label = "seed " + std::to_string(seed);
    ExpectIdenticalOutcomes(threads_answers, uring_answers, label.c_str());

    // Spot-check against the sequential executor too (the threads side is
    // already anchored to it by exec_test, but keep this sweep
    // self-contained).
    const exec::QueryOutcome& got = uring_answers[0];
    ASSERT_TRUE(got.status.ok()) << got.status;
    auto algo = core::MakeAlgorithm(queries[0].algo, index->tree(),
                                    queries[0].point, queries[0].k,
                                    index->num_disks());
    core::RunToCompletion(index->tree(), algo.get());
    const std::vector<core::Neighbor> want = algo->result().Sorted();
    ASSERT_EQ(got.neighbors.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.neighbors[i].object, want[i].object) << label;
      ASSERT_EQ(got.neighbors[i].dist_sq, want[i].dist_sq) << label;
    }
  }
  std::filesystem::remove_all(dir);
}

// Decorated stores expose no raw fds, so batches run through ReadPages on
// the backend's executors — same throttle charges as under threads, same
// answers, and the backend reports the degraded mode honestly.
TEST(UringBackendTest, ThrottledStoreRunsWithoutRawFds) {
  const exec::UringProbe probe = ProbeIoUring();
  if (!probe.available) {
    GTEST_SKIP() << "io_uring unavailable: " << probe.detail;
  }
  const std::string dir = TempDir("sqp_uring_throttle_test");
  auto index = BuildSmallIndex(21, 4, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  ASSERT_TRUE(storage::SaveIndexToDir(*index, dir).ok());
  auto store = storage::FilePageStore::Open(dir);
  ASSERT_TRUE(store.ok());
  storage::ThrottledPageStore throttled(store->get(), /*read_latency_s=*/
                                        0.0002);

  exec::EngineOptions options;
  options.query_threads = 4;
  options.cache_pages = 64;
  options.io_backend = exec::IoBackendKind::kUring;
  auto uring_engine =
      exec::ParallelQueryEngine::Create(*index, &throttled, options);
  ASSERT_TRUE(uring_engine.ok()) << uring_engine.status();
  ASSERT_STREQ((*uring_engine)->io_backend_name(), "uring");
  const auto* backend = dynamic_cast<const UringIoBackend*>(
      &(*uring_engine)->io_backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_FALSE(backend->using_raw_fds());

  options.io_backend = exec::IoBackendKind::kThreads;
  auto threads_engine =
      exec::ParallelQueryEngine::Create(*index, &throttled, options);
  ASSERT_TRUE(threads_engine.ok());

  const auto queries = AllAlgoQueries(QueriesFor(21, 2), 10);
  ExpectIdenticalOutcomes((*threads_engine)->RunBatch(queries),
                          (*uring_engine)->RunBatch(queries), "throttled");
  std::filesystem::remove_all(dir);
}

// --- Fault equivalence ----------------------------------------------------

// Injected faults surface as the same typed Statuses on both backends: a
// healed transient leaves bit-identical answers, a permanent EIO fails
// exactly the touched queries with the same status class.
TEST(UringBackendTest, InjectedFaultsGiveSameStatusesAsThreads) {
  const exec::UringProbe probe = ProbeIoUring();
  if (!probe.available) {
    GTEST_SKIP() << "io_uring unavailable: " << probe.detail;
  }
  auto index = BuildSmallIndex(33, 3, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false);
  storage::MemPageStore base(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &base).ok());

  const auto run_with_backend =
      [&](exec::IoBackendKind kind,
          const std::function<void(storage::FaultInjectingPageStore*)>& arm)
      -> std::vector<exec::QueryOutcome> {
    storage::FaultInjectingPageStore faulty(&base, /*seed=*/7);
    exec::EngineOptions options;
    options.query_threads = 1;  // deterministic fault draw order
    options.cache_pages = 0;    // every fetch touches the store
    options.io_backend = kind;
    auto engine =
        exec::ParallelQueryEngine::Create(*index, &faulty, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    EXPECT_STREQ((*engine)->io_backend_name(),
                 kind == exec::IoBackendKind::kUring ? "uring" : "threads");
    arm(&faulty);  // after Create — the layout load must stay clean
    return (*engine)->RunBatch(AllAlgoQueries(QueriesFor(33, 2), 8));
  };

  // Permanent EIO on every disk-1 read: queries touching disk 1 fail with
  // the same status class on both backends; the rest still answer.
  const auto arm_permanent = [](storage::FaultInjectingPageStore* s) {
    storage::FaultSpec spec;
    spec.kind = storage::FaultKind::kPermanentError;
    spec.disk = 1;
    s->AddFault(spec);
  };
  const auto threads_perm =
      run_with_backend(exec::IoBackendKind::kThreads, arm_permanent);
  const auto uring_perm =
      run_with_backend(exec::IoBackendKind::kUring, arm_permanent);
  ASSERT_EQ(threads_perm.size(), uring_perm.size());
  size_t failures = 0;
  for (size_t i = 0; i < threads_perm.size(); ++i) {
    EXPECT_EQ(threads_perm[i].status.code(), uring_perm[i].status.code())
        << "query " << i << ": " << threads_perm[i].status << " vs "
        << uring_perm[i].status;
    if (!threads_perm[i].status.ok()) ++failures;
  }
  EXPECT_GT(failures, 0u);

  // Torn reads that the retry loop heals: ok() everywhere, identical
  // answers, and both backends report the same per-query fault activity.
  const auto arm_torn = [](storage::FaultInjectingPageStore* s) {
    storage::FaultSpec spec;
    spec.kind = storage::FaultKind::kTornRead;
    spec.probability = 0.3;
    spec.max_hits = 6;
    s->AddFault(spec);
  };
  const auto threads_torn =
      run_with_backend(exec::IoBackendKind::kThreads, arm_torn);
  const auto uring_torn =
      run_with_backend(exec::IoBackendKind::kUring, arm_torn);
  ExpectIdenticalOutcomes(threads_torn, uring_torn, "torn reads");
  for (const auto& outcome : uring_torn) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  }
}

// --- Conservation ---------------------------------------------------------

// After a drain, the read-run identity closes
// (reads_submitted == reads_completed + reads_cancelled), on both the ring
// path (raw files) and the executor fallback (MemPageStore).
TEST(UringBackendTest, ConservationIdentitiesAfterDrain) {
  const exec::UringProbe probe = ProbeIoUring();
  if (!probe.available) {
    GTEST_SKIP() << "io_uring unavailable: " << probe.detail;
  }
  const std::string dir = TempDir("sqp_uring_conservation_test");
  constexpr int kDisks = 3;
  auto file_store = storage::FilePageStore::Create(dir, kDisks);
  ASSERT_TRUE(file_store.ok());
  storage::MemPageStore mem_store(kDisks);
  std::vector<uint8_t> content(1 << 16);
  common::Rng rng(5);
  for (auto& b : content) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (int d = 0; d < kDisks; ++d) {
    ASSERT_TRUE((*file_store)
                    ->WriteAt(d, 0, content.data(), content.size())
                    .ok());
    ASSERT_TRUE(
        mem_store.WriteAt(d, 0, content.data(), content.size()).ok());
  }

  for (storage::PageStore* store :
       {static_cast<storage::PageStore*>(file_store->get()),
        static_cast<storage::PageStore*>(&mem_store)}) {
    auto backend = UringIoBackend::Create(store);
    ASSERT_TRUE(backend.ok()) << backend.status();

    std::atomic<int> batches_done{0};
    constexpr int kBatches = 40;
    std::vector<std::vector<uint8_t>> bufs(kBatches);
    for (int i = 0; i < kBatches; ++i) {
      bufs[i].resize(4096 * 2);
      const int disk = i % kDisks;
      // Two adjacent pages (merge into one run) at a rotating offset.
      const uint64_t offset = 4096ull * static_cast<uint64_t>(i % 8);
      std::vector<storage::ReadRequest> requests = {
          {disk, offset, bufs[i].data(), 4096},
          {disk, offset + 4096, bufs[i].data() + 4096, 4096}};
      (*backend)->SubmitBatchRead(
          disk, std::move(requests), [&, i, disk, offset](common::Status s) {
            ASSERT_TRUE(s.ok()) << s;
            EXPECT_EQ(std::memcmp(bufs[i].data(), content.data() + offset,
                                  bufs[i].size()),
                      0)
                << "batch " << i << " disk " << disk;
            batches_done.fetch_add(1);
          });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const bool done =
          batches_done.load() == kBatches &&
          (*backend)->jobs_completed() == static_cast<uint64_t>(kBatches) &&
          (*backend)->reads_completed() + (*backend)->reads_cancelled() ==
              (*backend)->reads_submitted();
      if (done) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(batches_done.load(), kBatches);
    EXPECT_GT((*backend)->reads_submitted(), 0u);
    EXPECT_EQ((*backend)->reads_submitted(),
              (*backend)->reads_completed() + (*backend)->reads_cancelled());
    EXPECT_EQ((*backend)->jobs_completed(),
              static_cast<uint64_t>(kBatches));
  }
  std::filesystem::remove_all(dir);
}

// --- Forced fallback ------------------------------------------------------

TEST(UringBackendTest, ForcedOffFallsBackToThreads) {
  setenv("SQP_FORCE_NO_URING", "1", /*overwrite=*/1);
  const exec::UringProbe probe = ProbeIoUring();
  EXPECT_FALSE(probe.available);
  EXPECT_NE(probe.detail.find("SQP_FORCE_NO_URING"), std::string::npos)
      << probe.detail;

  auto index = BuildSmallIndex(3, 3, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false);
  storage::MemPageStore store(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  exec::EngineOptions options;
  options.io_backend = exec::IoBackendKind::kUring;
  auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_STREQ((*engine)->io_backend_name(), "threads");
  EXPECT_FALSE((*engine)->io_backend_fallback_reason().empty());
  unsetenv("SQP_FORCE_NO_URING");

  // The fallback engine still answers.
  const auto answers =
      (*engine)->RunBatch(AllAlgoQueries(QueriesFor(3, 1), 5));
  for (const auto& a : answers) ASSERT_TRUE(a.status.ok()) << a.status;
}

// --- Shutdown races (run under TSan in CI) --------------------------------

// Closure jobs racing read batches and the backend's own shutdown: no
// data race, and every batch completes. Small sizes — the value is the
// interleavings under TSan.
TEST(UringConcurrencyTest, ShutdownRacesCompletions) {
  const exec::UringProbe probe = ProbeIoUring();
  if (!probe.available) {
    GTEST_SKIP() << "io_uring unavailable: " << probe.detail;
  }
  const std::string dir = TempDir("sqp_uring_race_test");
  constexpr int kDisks = 2;
  auto store = storage::FilePageStore::Create(dir, kDisks);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> content(1 << 15, 0xab);
  for (int d = 0; d < kDisks; ++d) {
    ASSERT_TRUE(
        (*store)->WriteAt(d, 0, content.data(), content.size()).ok());
  }

  for (int round = 0; round < 4; ++round) {
    auto backend = UringIoBackend::Create(store->get());
    ASSERT_TRUE(backend.ok()) << backend.status();
    std::atomic<int> done{0};
    constexpr int kBatchesPerDisk = 25;
    std::vector<std::vector<uint8_t>> bufs(kDisks * kBatchesPerDisk);

    std::vector<std::thread> submitters;
    for (int d = 0; d < kDisks; ++d) {
      submitters.emplace_back([&, d] {
        for (int i = 0; i < kBatchesPerDisk; ++i) {
          auto& buf = bufs[d * kBatchesPerDisk + i];
          buf.resize(4096);
          std::vector<storage::ReadRequest> requests = {
              {d, 4096ull * static_cast<uint64_t>(i % 8), buf.data(),
               4096}};
          (*backend)->SubmitBatchRead(d, std::move(requests),
                                      [&](common::Status s) {
                                        EXPECT_TRUE(s.ok()) << s;
                                        done.fetch_add(1);
                                      });
          (*backend)->Submit(d, [] { std::this_thread::yield(); });
        }
      });
    }
    for (auto& t : submitters) t.join();
    // Destroy mid-flight on odd rounds: the destructor must drain queued
    // batches and closures without racing the reactor.
    if (round % 2 == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (done.load() < kDisks * kBatchesPerDisk &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    backend->reset();
    EXPECT_EQ(done.load(), kDisks * kBatchesPerDisk);
  }
  std::filesystem::remove_all(dir);
}

// --- Hot-neighbor placement -----------------------------------------------

// Structural property of the placed layout: the children of one parent
// that share a disk occupy contiguous bytes of that disk's file, so one
// sibling-group activation costs one media access per disk touched.
TEST(HotNeighborPlacementTest, SiblingGroupsAreContiguousPerDisk) {
  auto index = BuildSmallIndex(91, 4, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore store(4);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());  // placement on
  auto layout = storage::ReadIndexLayout(store);
  ASSERT_TRUE(layout.ok()) << layout.status();
  const size_t page_size = layout->page_size;

  size_t groups_checked = 0;
  for (rstar::PageId id : index->tree().LiveNodeIds()) {
    const rstar::Node& n = index->tree().node(id);
    if (n.IsLeaf()) continue;
    // Children grouped by disk, in file order: each group must be a
    // single gap-free byte run.
    std::map<int, std::vector<const storage::PageLocation*>> by_disk;
    for (const rstar::Entry& e : n.entries) {
      const storage::PageLocation& loc = layout->pages[e.child];
      ASSERT_GT(loc.span, 0u);
      by_disk[loc.disk].push_back(&loc);
    }
    for (auto& [disk, locs] : by_disk) {
      std::sort(locs.begin(), locs.end(),
                [](const storage::PageLocation* a,
                   const storage::PageLocation* b) {
                  return a->offset < b->offset;
                });
      for (size_t i = 1; i < locs.size(); ++i) {
        EXPECT_EQ(locs[i]->offset,
                  locs[i - 1]->offset + locs[i - 1]->span * page_size)
            << "parent " << id << " disk " << disk
            << ": sibling group torn apart";
      }
      if (locs.size() > 1) ++groups_checked;
    }
  }
  EXPECT_GT(groups_checked, 10u);  // the property was actually exercised
}

// The placement measurably reduces physical media accesses for the access
// pattern it targets — batch-reading sibling groups — and changes no
// bytes' meaning: the placed image round-trips and answers identically.
TEST(HotNeighborPlacementTest, FewerMediaReadsAndIdenticalAnswers) {
  auto index = BuildSmallIndex(92, 3, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore placed(3), legacy(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &placed).ok());
  storage::SaveIndexOptions off;
  off.hot_neighbor_placement = false;
  ASSERT_TRUE(storage::SaveIndex(*index, &legacy, off).ok());

  const auto media_reads_for_sibling_sweep =
      [&](const storage::PageStore& store) -> uint64_t {
    auto reader = exec::StoredIndexReader::Open(&store);
    EXPECT_TRUE(reader.ok()) << reader.status();
    for (rstar::PageId id : index->tree().LiveNodeIds()) {
      const rstar::Node& n = index->tree().node(id);
      if (n.IsLeaf()) continue;
      std::vector<rstar::PageId> children;
      for (const rstar::Entry& e : n.entries) children.push_back(e.child);
      std::vector<core::FlatNode> nodes;
      EXPECT_TRUE((*reader)->ReadFlatNodes(children, &nodes).ok());
    }
    return (*reader)->media_reads();
  };
  const uint64_t placed_reads = media_reads_for_sibling_sweep(placed);
  const uint64_t legacy_reads = media_reads_for_sibling_sweep(legacy);
  EXPECT_LT(placed_reads, legacy_reads)
      << "placement should merge sibling reads";

  // Round-trip: the placed image re-opens into a structurally valid tree
  // with the same placement map.
  auto reopened = storage::OpenIndex(placed);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->tree().size(), index->tree().size());

  // And answers off the placed vs legacy image are bit-identical.
  exec::EngineOptions options;
  options.query_threads = 2;
  auto placed_engine =
      exec::ParallelQueryEngine::Create(*index, &placed, options);
  auto legacy_engine =
      exec::ParallelQueryEngine::Create(*index, &legacy, options);
  ASSERT_TRUE(placed_engine.ok() && legacy_engine.ok());
  const auto queries = AllAlgoQueries(QueriesFor(92, 2), 12);
  ExpectIdenticalOutcomes((*placed_engine)->RunBatch(queries),
                          (*legacy_engine)->RunBatch(queries), "placement");
}

}  // namespace
}  // namespace sqp
