// Tests of the real concurrent execution engine (src/exec/): the sharded
// pin/unpin page cache, the per-disk I/O worker pool, PageId-level batched
// store reads, and — the anchor property — bit-identical k-NN results
// between ParallelQueryEngine and the sequential executor for every
// algorithm, declustering policy and seed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/sequential_executor.h"
#include "exec/io_pool.h"
#include "exec/page_cache.h"
#include "exec/parallel_engine.h"
#include "exec/stored_index.h"
#include "storage/index_io.h"
#include "storage/page_store.h"
#include "tests/test_seeds.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using core::AlgorithmKind;
using exec::DiskIoPool;
using exec::PageCacheOptions;
using exec::ShardedPageCache;
using geometry::Point;
using parallel::DeclusterPolicy;

exec::FlatNode MakeNode(rstar::PageId id, int n_entries) {
  rstar::Node node;
  node.id = id;
  node.level = 0;
  for (int i = 0; i < n_entries; ++i) {
    Point p{static_cast<geometry::Coord>(i), 0.0f};
    node.entries.push_back(
        rstar::Entry::ForObject(p, static_cast<rstar::ObjectId>(i)));
  }
  return exec::FlatNode::FromNode(node, 2);
}

// --- ShardedPageCache -----------------------------------------------------

TEST(PageCacheTest, MissThenHit) {
  PageCacheOptions options;
  options.capacity_pages = 8;
  options.shards = 2;
  ShardedPageCache cache(options);

  EXPECT_EQ(cache.LookupPinned(7), nullptr);
  const exec::FlatNode* inserted = cache.InsertPinned(7, MakeNode(7, 3), 1);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(inserted->size(), 3u);
  cache.Unpin(7);

  const exec::FlatNode* hit = cache.LookupPinned(7);
  ASSERT_EQ(hit, inserted);
  cache.Unpin(7);

  const exec::PageCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.resident_pages, 1u);
}

TEST(PageCacheTest, EvictsLruWithinCapacity) {
  PageCacheOptions options;
  options.capacity_pages = 4;
  options.shards = 1;
  ShardedPageCache cache(options);

  for (rstar::PageId id = 0; id < 8; ++id) {
    cache.InsertPinned(id, MakeNode(id, 1), 1);
    cache.Unpin(id);
  }
  // Only the most recent 4 pages can be resident.
  exec::PageCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.resident_pages, 4u);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(cache.LookupPinned(0), nullptr);
  ASSERT_NE(cache.LookupPinned(7), nullptr);
  cache.Unpin(7);
}

TEST(PageCacheTest, PinnedEntriesSurviveEviction) {
  PageCacheOptions options;
  options.capacity_pages = 2;
  options.shards = 1;
  ShardedPageCache cache(options);

  const exec::FlatNode* pinned = cache.InsertPinned(100, MakeNode(100, 2), 1);
  // Flood far past capacity while 100 stays pinned.
  for (rstar::PageId id = 0; id < 20; ++id) {
    cache.InsertPinned(id, MakeNode(id, 1), 1);
    cache.Unpin(id);
  }
  const exec::FlatNode* still = cache.LookupPinned(100);
  EXPECT_EQ(still, pinned);
  cache.Unpin(100);
  cache.Unpin(100);

  // Once unpinned it becomes evictable again.
  for (rstar::PageId id = 30; id < 40; ++id) {
    cache.InsertPinned(id, MakeNode(id, 1), 1);
    cache.Unpin(id);
  }
  EXPECT_EQ(cache.LookupPinned(100), nullptr);
}

TEST(PageCacheTest, SpanAccountsSupernodes) {
  PageCacheOptions options;
  options.capacity_pages = 6;
  options.shards = 1;
  ShardedPageCache cache(options);
  cache.InsertPinned(1, MakeNode(1, 1), 4);
  cache.Unpin(1);
  cache.InsertPinned(2, MakeNode(2, 1), 4);
  cache.Unpin(2);
  // Both spans cannot fit in 6 pages; the older record was evicted.
  const exec::PageCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.resident_pages, 4u);
  EXPECT_EQ(cache.LookupPinned(1), nullptr);
}

TEST(PageCacheTest, ZeroCapacityDisablesCaching) {
  PageCacheOptions options;
  options.capacity_pages = 0;
  options.shards = 4;
  ShardedPageCache cache(options);
  cache.InsertPinned(5, MakeNode(5, 1), 1);
  cache.Unpin(5);
  EXPECT_EQ(cache.LookupPinned(5), nullptr);
}

TEST(PageCacheTest, InsertRaceKeepsResidentCopy) {
  PageCacheOptions options;
  options.capacity_pages = 16;
  options.shards = 1;
  ShardedPageCache cache(options);
  const exec::FlatNode* first = cache.InsertPinned(9, MakeNode(9, 2), 1);
  const exec::FlatNode* second = cache.InsertPinned(9, MakeNode(9, 5), 1);
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->size(), 2u);  // the resident copy won
  cache.Unpin(9);
  cache.Unpin(9);
}

// Contended pin/unpin from many threads; run under TSan in CI.
TEST(PageCacheTest, ConcurrentPinUnpin) {
  PageCacheOptions options;
  options.capacity_pages = 64;
  options.shards = 4;
  ShardedPageCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        const rstar::PageId id =
            static_cast<rstar::PageId>(rng.UniformInt(0, 127));
        const exec::FlatNode* node = cache.LookupPinned(id);
        if (node == nullptr) {
          node = cache.InsertPinned(id, MakeNode(id, 2), 1);
        }
        ASSERT_NE(node, nullptr);
        ASSERT_EQ(node->size(), 2u);
        cache.Unpin(id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const exec::PageCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOps);
}

// --- DiskIoPool -----------------------------------------------------------

TEST(DiskIoPoolTest, JobsOnOneDiskRunInSubmissionOrder) {
  DiskIoPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    pool.Submit(0, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      if (++done == 50) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == 50; });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(DiskIoPoolTest, DisksProgressIndependently) {
  DiskIoPool pool(4);
  // Disk 0's worker parks on a gate; the other disks' jobs must still
  // complete while it is parked — a shared or serialized queue would
  // leave them stuck behind it. Gating on completion order instead of
  // wall clock keeps the test deterministic under arbitrary host load.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> fast_done{0};
  pool.Submit(0, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  for (int d = 1; d < 4; ++d) {
    pool.Submit(d, [&] { fast_done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fast_done.load() < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "independent disks were serialized";
    std::this_thread::yield();
  }
  EXPECT_EQ(fast_done.load(), 3);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_one();
  while (pool.jobs_completed() < 4) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "gate job stuck";
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.jobs_completed(), 4u);
}

TEST(DiskIoPoolTest, DestructorDrainsPendingJobs) {
  std::atomic<int> ran{0};
  {
    DiskIoPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit(i % 2, [&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(DiskIoPoolTest, TrySubmitRejectsWhenQueueFull) {
  exec::DiskIoPoolOptions opts;
  opts.max_queue_depth = 4;
  DiskIoPool pool(1, nullptr, opts);

  // Park the worker on a gate job so everything behind it stays queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> gate_running{false};
  pool.Submit(0, [&] {
    gate_running.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (!gate_running.load()) std::this_thread::yield();

  // The queue (not counting the job in service) holds exactly the bound.
  std::atomic<int> ran{0};
  for (size_t i = 0; i < opts.max_queue_depth; ++i) {
    EXPECT_TRUE(pool.TrySubmit(0, [&ran] { ran.fetch_add(1); }));
  }
  EXPECT_FALSE(pool.TrySubmit(0, [&ran] { ran.fetch_add(1); }));
  EXPECT_FALSE(pool.TrySubmit(0, [&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(pool.queue_rejections(), 2u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_one();
  // Rejected jobs were dropped, accepted ones all run.
  while (ran.load() < static_cast<int>(opts.max_queue_depth)) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), static_cast<int>(opts.max_queue_depth));
}

TEST(DiskIoPoolTest, SubmitBlocksUntilSpaceAndCountsBackpressure) {
  exec::DiskIoPoolOptions opts;
  opts.max_queue_depth = 2;
  DiskIoPool pool(1, nullptr, opts);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> gate_running{false};
  pool.Submit(0, [&] {
    gate_running.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (!gate_running.load()) std::this_thread::yield();
  pool.Submit(0, [] {});
  pool.Submit(0, [] {});  // queue now at capacity

  std::atomic<bool> submitted{false};
  std::thread submitter([&] {
    pool.Submit(0, [] {});  // must block until the worker drains a slot
    submitted.store(true);
  });
  // The stall is counted before the wait, so this poll is race-free.
  while (pool.backpressure_waits() == 0) std::this_thread::yield();
  EXPECT_FALSE(submitted.load());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_one();
  submitter.join();
  EXPECT_TRUE(submitted.load());
  EXPECT_EQ(pool.backpressure_waits(), 1u);
  EXPECT_EQ(pool.queue_rejections(), 0u);
}

#ifndef NDEBUG
TEST(DiskIoPoolDeathTest, SubmitFromWorkerThreadAbortsInDebugBuilds) {
  // Blocking Submit from a worker can self-deadlock on a full queue;
  // debug builds turn the latent hazard into an immediate abort.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        DiskIoPool pool(1);
        std::atomic<bool> done{false};
        pool.Submit(0, [&] {
          pool.Submit(0, [] {});  // aborts here
          done.store(true);
        });
        while (!done.load()) std::this_thread::yield();
      },
      "OnWorkerThread");
}
#endif  // NDEBUG

// --- Store-backed fixtures ------------------------------------------------

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

// --- FilePageStore::ReadPages ---------------------------------------------

TEST(ReadPagesTest, MergedBatchesMatchSingleReads) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sqp_readpages_test")
          .string();
  std::filesystem::remove_all(dir);
  auto store = storage::FilePageStore::Create(dir, 3);
  ASSERT_TRUE(store.ok()) << store.status();

  // Lay down distinctive content on each disk.
  common::Rng rng(77);
  std::vector<std::vector<uint8_t>> truth(3);
  for (int d = 0; d < 3; ++d) {
    truth[d].resize(16384);
    for (auto& b : truth[d]) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    ASSERT_TRUE((*store)->WriteAt(d, 0, truth[d].data(), truth[d].size())
                    .ok());
  }

  // Random batches: mixed disks, shuffled order, adjacent and disjoint
  // ranges — results must equal per-request ReadAt regardless of merging.
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 15));
    std::vector<std::vector<uint8_t>> bufs(n);
    std::vector<storage::ReadRequest> requests;
    std::vector<std::pair<int, uint64_t>> where;
    for (size_t i = 0; i < n; ++i) {
      const int disk = static_cast<int>(rng.UniformInt(0, 2));
      const size_t len = 256u << rng.UniformInt(0, 2);
      const uint64_t offset =
          256u * static_cast<uint64_t>(rng.UniformInt(0, 30));
      bufs[i].resize(len);
      requests.push_back({disk, offset, bufs[i].data(), len});
      where.emplace_back(disk, offset);
    }
    ASSERT_TRUE((*store)->ReadPages(requests).ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(bufs[i].data(),
                            truth[where[i].first].data() + where[i].second,
                            bufs[i].size()),
                0)
          << "trial " << trial << " request " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ReadPagesTest, DefaultImplementationOnMemStore) {
  storage::MemPageStore store(2);
  std::vector<uint8_t> content(1024);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i);
  }
  ASSERT_TRUE(store.WriteAt(1, 0, content.data(), content.size()).ok());
  std::vector<uint8_t> a(256), b(256);
  const std::vector<storage::ReadRequest> requests = {
      {1, 256, a.data(), 256}, {1, 0, b.data(), 256}};
  ASSERT_TRUE(store.ReadPages(requests).ok());
  EXPECT_EQ(std::memcmp(a.data(), content.data() + 256, 256), 0);
  EXPECT_EQ(std::memcmp(b.data(), content.data(), 256), 0);
}

TEST(ReadPagesTest, ReadPastEndFails) {
  storage::MemPageStore store(1);
  std::vector<uint8_t> buf(64);
  const std::vector<storage::ReadRequest> requests = {
      {0, 0, buf.data(), 64}};
  EXPECT_FALSE(store.ReadPages(requests).ok());
}

// --- StoredIndexReader ----------------------------------------------------

TEST(StoredIndexReaderTest, NodesRoundTripThroughStore) {
  auto index = BuildSmallIndex(500, 5, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore store(5);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());

  auto reader = exec::StoredIndexReader::Open(&store);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->layout().root, index->tree().root());

  const std::vector<rstar::PageId> live = index->tree().LiveNodeIds();
  // The whole tree in one batch; decoded nodes must equal the live ones.
  std::vector<exec::FlatNode> nodes;
  ASSERT_TRUE((*reader)->ReadFlatNodes(live, &nodes).ok());
  ASSERT_EQ(nodes.size(), live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    const rstar::Node& mem = index->tree().node(live[i]);
    EXPECT_EQ(nodes[i].id(), mem.id);
    EXPECT_EQ(nodes[i].level(), mem.level);
    ASSERT_EQ(nodes[i].size(), mem.entries.size());
    for (size_t e = 0; e < mem.entries.size(); ++e) {
      EXPECT_EQ(nodes[i].child(e), mem.entries[e].child);
      EXPECT_EQ(nodes[i].object(e), mem.entries[e].object);
      EXPECT_EQ(nodes[i].count(e), mem.entries[e].count);
      EXPECT_EQ(nodes[i].RectOf(e).lo(), mem.entries[e].mbr.lo());
      EXPECT_EQ(nodes[i].RectOf(e).hi(), mem.entries[e].mbr.hi());
    }
    // Directory locations agree with the placement map.
    EXPECT_EQ((*reader)->layout().pages[live[i]].disk,
              index->placement().DiskOf(live[i]));
  }
}

TEST(StoredIndexReaderTest, DeadPageIsAnError) {
  auto index = BuildSmallIndex(501, 3, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false);
  storage::MemPageStore store(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  auto reader = exec::StoredIndexReader::Open(&store);
  ASSERT_TRUE(reader.ok());
  const rstar::PageId dead = static_cast<rstar::PageId>(
      (*reader)->layout().pages.size() + 17);
  EXPECT_FALSE((*reader)->ReadFlatNode(dead).ok());
}

// --- ParallelQueryEngine --------------------------------------------------

std::vector<Point> QueriesFor(uint64_t seed, size_t n) {
  std::vector<Point> queries;
  common::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(Point{static_cast<geometry::Coord>(rng.Uniform()),
                            static_cast<geometry::Coord>(rng.Uniform())});
  }
  return queries;
}

void ExpectIdenticalToSequential(const parallel::ParallelRStarTree& index,
                                 exec::ParallelQueryEngine& engine,
                                 const std::vector<Point>& queries, size_t k,
                                 const char* label) {
  constexpr AlgorithmKind kAll[] = {AlgorithmKind::kBbss,
                                    AlgorithmKind::kFpss,
                                    AlgorithmKind::kCrss,
                                    AlgorithmKind::kWoptss};
  std::vector<exec::EngineQuery> engine_queries;
  for (AlgorithmKind kind : kAll) {
    for (const Point& q : queries) {
      engine_queries.push_back({q, k, kind});
    }
  }
  const std::vector<exec::QueryAnswer> answers =
      engine.RunBatch(engine_queries);
  size_t qi = 0;
  for (AlgorithmKind kind : kAll) {
    for (const Point& q : queries) {
      const exec::QueryAnswer& got = answers[qi++];
      ASSERT_TRUE(got.status.ok())
          << label << " " << core::AlgorithmName(kind) << ": "
          << got.status;
      auto algo = core::MakeAlgorithm(kind, index.tree(), q, k,
                                      index.num_disks());
      const core::ExecutionStats stats =
          core::RunToCompletion(index.tree(), algo.get());
      EXPECT_EQ(got.pages_fetched, stats.pages_fetched)
          << label << " " << core::AlgorithmName(kind);
      EXPECT_EQ(got.steps, stats.steps);
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
  }
}

// The anchor property: across seeds, algorithms and declustering policies,
// the parallel engine's k-NN answers are bit-identical to the sequential
// executor's (same objects, same squared distances, same page counts).
TEST(ParallelEngineTest, BitIdenticalToSequentialAcrossSeeds) {
  constexpr DeclusterPolicy kPolicies[] = {
      DeclusterPolicy::kProximityIndex, DeclusterPolicy::kRoundRobin,
      DeclusterPolicy::kRandom, DeclusterPolicy::kDataBalance,
      DeclusterPolicy::kAreaBalance};
  for (uint64_t seed = 1; seed <= test_seeds::kPropertySweepSeeds;
       ++seed) {
    const DeclusterPolicy policy = kPolicies[seed % 5];
    const bool mirrored = seed % 3 == 0;
    const int disks = 3 + static_cast<int>(seed % 6);
    auto index = BuildSmallIndex(seed, disks, policy, mirrored);
    storage::MemPageStore store(disks);
    ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());

    exec::EngineOptions options;
    options.query_threads = 4;
    options.cache_pages = seed % 2 == 0 ? 256 : 16;  // exercise eviction
    options.cache_shards = 4;
    auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
    ASSERT_TRUE(engine.ok()) << engine.status();

    const std::string label = "seed " + std::to_string(seed);
    ExpectIdenticalToSequential(*index, **engine, QueriesFor(seed, 4),
                                1 + seed % 30, label.c_str());
  }
}

TEST(ParallelEngineTest, WorksOverRealFilesAndThrottledStore) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sqp_engine_test").string();
  std::filesystem::remove_all(dir);
  auto index = BuildSmallIndex(42, 4, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  ASSERT_TRUE(storage::SaveIndexToDir(*index, dir).ok());
  auto store = storage::FilePageStore::Open(dir);
  ASSERT_TRUE(store.ok());

  exec::EngineOptions options;
  options.query_threads = 3;
  options.cache_pages = 64;
  auto engine = exec::ParallelQueryEngine::Create(*index, store->get(),
                                                  options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ExpectIdenticalToSequential(*index, **engine, QueriesFor(43, 3), 10,
                              "file store");

  // Same through a service-time-charging decorator (no caching, so every
  // fetch pays the modeled latency via the per-disk workers).
  storage::ThrottledPageStore throttled(store->get(), 0.0002);
  exec::EngineOptions cold;
  cold.query_threads = 4;
  cold.cache_pages = 0;
  auto slow_engine =
      exec::ParallelQueryEngine::Create(*index, &throttled, cold);
  ASSERT_TRUE(slow_engine.ok()) << slow_engine.status();
  ExpectIdenticalToSequential(*index, **slow_engine, QueriesFor(44, 2), 5,
                              "throttled store");
  std::filesystem::remove_all(dir);
}

// serial_io bypasses the per-disk workers entirely; answers must not
// change (it is the benchmark's single-threaded baseline).
TEST(ParallelEngineTest, SerialIoModeIsIdenticalToo) {
  auto index = BuildSmallIndex(77, 5, DeclusterPolicy::kAreaBalance,
                               /*mirrored=*/false);
  storage::MemPageStore store(5);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  exec::EngineOptions options;
  options.query_threads = 1;
  options.cache_pages = 32;
  options.serial_io = true;
  auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ExpectIdenticalToSequential(*index, **engine, QueriesFor(78, 3), 8,
                              "serial io");
}

TEST(ParallelEngineTest, CacheCountsHitsAcrossQueries) {
  auto index = BuildSmallIndex(7, 4, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/false);
  storage::MemPageStore store(4);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  exec::EngineOptions options;
  options.query_threads = 1;
  options.cache_pages = 4096;  // everything stays resident
  auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
  ASSERT_TRUE(engine.ok());

  const exec::EngineQuery query{Point{0.5f, 0.5f}, 10,
                                AlgorithmKind::kCrss};
  const exec::QueryAnswer first = (*engine)->RunQuery(query);
  ASSERT_TRUE(first.status.ok());
  EXPECT_GT(first.cache_misses, 0u);
  const exec::QueryAnswer second = (*engine)->RunQuery(query);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_EQ(first.neighbors.size(), second.neighbors.size());
}

TEST(ParallelEngineTest, RejectsMismatchedStore) {
  auto index = BuildSmallIndex(8, 4, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false);
  auto other = BuildSmallIndex(9, 4, DeclusterPolicy::kRoundRobin,
                               /*mirrored=*/false, /*n_points=*/500);
  storage::MemPageStore store(4);
  ASSERT_TRUE(storage::SaveIndex(*other, &store).ok());
  exec::EngineOptions options;
  auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
  EXPECT_FALSE(engine.ok());
}

TEST(ParallelEngineTest, ManyConcurrentMixedQueries) {
  auto index = BuildSmallIndex(11, 6, DeclusterPolicy::kProximityIndex,
                               /*mirrored=*/true, /*n_points=*/1500);
  storage::MemPageStore store(6);
  ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
  exec::EngineOptions options;
  options.query_threads = 8;
  options.cache_pages = 128;
  options.cache_shards = 8;
  auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
  ASSERT_TRUE(engine.ok());

  std::vector<exec::EngineQuery> queries;
  common::Rng rng(12);
  for (int i = 0; i < 120; ++i) {
    const AlgorithmKind kind = static_cast<AlgorithmKind>(i % 4);
    queries.push_back(
        {Point{static_cast<geometry::Coord>(rng.Uniform()),
               static_cast<geometry::Coord>(rng.Uniform())},
         1 + static_cast<size_t>(rng.UniformInt(0, 20)), kind});
  }
  const std::vector<exec::QueryAnswer> answers =
      (*engine)->RunBatch(queries);
  ASSERT_EQ(answers.size(), queries.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    ASSERT_TRUE(answers[i].status.ok()) << "query " << i;
    auto algo = core::MakeAlgorithm(queries[i].algo, index->tree(),
                                    queries[i].point, queries[i].k,
                                    index->num_disks());
    core::RunToCompletion(index->tree(), algo.get());
    const std::vector<core::Neighbor> want = algo->result().Sorted();
    ASSERT_EQ(answers[i].neighbors.size(), want.size()) << "query " << i;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(answers[i].neighbors[r].object, want[r].object)
          << "query " << i << " rank " << r;
    }
  }
  // All in-flight pins were released.
  const exec::PageCacheStats stats = (*engine)->cache().GetStats();
  EXPECT_LE(stats.resident_pages, 128u + 6u);
}

}  // namespace
}  // namespace sqp
