// Google-benchmark microbenchmarks of the hot kernels: the three distance
// metrics, Lemma 1, R*-tree insertion/split machinery, the exact k-NN
// search used as the WOPTSS oracle, the page checksum and the cache-miss
// decode path, and the concurrency primitives of the real execution
// engine (sharded page cache, batched store reads).

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/exact_knn.h"
#include "core/flat_node.h"
#include "core/lemma1.h"
#include "exec/coalescer.h"
#include "exec/page_cache.h"
#include "exec/stored_index.h"
#include "geometry/kernels.h"
#include "geometry/metrics.h"
#include "parallel/declustering.h"
#include "rstar/rstar_tree.h"
#include "storage/index_io.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

geometry::Rect RandomRect(int dim, common::Rng& rng) {
  geometry::Point lo(dim), hi(dim);
  for (int i = 0; i < dim; ++i) {
    const double a = rng.Uniform();
    const double b = rng.Uniform();
    lo[i] = static_cast<geometry::Coord>(std::min(a, b));
    hi[i] = static_cast<geometry::Coord>(std::max(a, b));
  }
  return geometry::Rect(lo, hi);
}

geometry::Point RandomPoint(int dim, common::Rng& rng) {
  geometry::Point p(dim);
  for (int i = 0; i < dim; ++i) {
    p[i] = static_cast<geometry::Coord>(rng.Uniform());
  }
  return p;
}

void BM_MinDist(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  common::Rng rng(1);
  const geometry::Rect r = RandomRect(dim, rng);
  const geometry::Point q = RandomPoint(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::MinDistSq(q, r));
  }
}
BENCHMARK(BM_MinDist)->Arg(2)->Arg(5)->Arg(10);

void BM_MinMaxDist(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  common::Rng rng(2);
  const geometry::Rect r = RandomRect(dim, rng);
  const geometry::Point q = RandomPoint(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::MinMaxDistSq(q, r));
  }
}
BENCHMARK(BM_MinMaxDist)->Arg(2)->Arg(5)->Arg(10);

void BM_MaxDist(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  common::Rng rng(3);
  const geometry::Rect r = RandomRect(dim, rng);
  const geometry::Point q = RandomPoint(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::MaxDistSq(q, r));
  }
}
BENCHMARK(BM_MaxDist)->Arg(2)->Arg(5)->Arg(10);

void BM_Proximity(benchmark::State& state) {
  common::Rng rng(4);
  const geometry::Rect a = RandomRect(2, rng);
  const geometry::Rect b = RandomRect(2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::Proximity(a, b, 0.1));
  }
}
BENCHMARK(BM_Proximity);

void BM_Lemma1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(5);
  std::vector<rstar::Entry> pool;
  for (int i = 0; i < n; ++i) {
    pool.push_back(rstar::Entry::ForChild(
        RandomRect(2, rng), static_cast<rstar::PageId>(i),
        static_cast<uint32_t>(1 + rng.UniformInt(0, 40))));
  }
  const geometry::Point q = RandomPoint(2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeLemma1(q, pool, 20));
  }
}
BENCHMARK(BM_Lemma1)->Arg(40)->Arg(160);

// --- SoA batch kernels ----------------------------------------------------

// A random internal node of `n` entries in flat layout.
core::FlatNode RandomFlatNode(int dim, int n, common::Rng& rng) {
  rstar::Node node;
  node.id = 1;
  node.level = 1;
  for (int i = 0; i < n; ++i) {
    node.entries.push_back(rstar::Entry::ForChild(
        RandomRect(dim, rng), static_cast<rstar::PageId>(i + 2),
        static_cast<uint32_t>(1 + rng.UniformInt(0, 40))));
  }
  return core::FlatNode::FromNode(node, dim);
}

// Whole-node MinDist in one kernel pass vs the per-entry Rect metric it
// replaced. range(0) = dim, range(1) = entries, range(2) = 1 forces the
// scalar fallback (0 = the vectorizable dims-outer path).
void BM_KernelMinDistBatch(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  geometry::SetForceScalarKernels(state.range(2) != 0);
  common::Rng rng(12);
  const core::FlatNode node = RandomFlatNode(dim, n, rng);
  const geometry::Point q = RandomPoint(dim, rng);
  std::vector<double> out(static_cast<size_t>(n));
  for (auto _ : state) {
    geometry::MinDistBatch(q, node.lo_planes(), node.hi_planes(),
                           node.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  geometry::SetForceScalarKernels(false);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelMinDistBatch)
    ->Args({2, 40, 0})
    ->Args({2, 40, 1})
    ->Args({5, 40, 0})
    ->Args({5, 40, 1})
    ->Args({10, 160, 0})
    ->Args({10, 160, 1});

void BM_KernelMinMaxDistBatch(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  geometry::SetForceScalarKernels(state.range(2) != 0);
  common::Rng rng(13);
  const core::FlatNode node = RandomFlatNode(dim, n, rng);
  const geometry::Point q = RandomPoint(dim, rng);
  std::vector<double> out(static_cast<size_t>(n));
  std::vector<double> scratch(static_cast<size_t>(n));
  for (auto _ : state) {
    geometry::MinMaxDistBatch(q, node.lo_planes(), node.hi_planes(),
                              node.size(), out.data(), scratch.data());
    benchmark::DoNotOptimize(out.data());
  }
  geometry::SetForceScalarKernels(false);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelMinMaxDistBatch)
    ->Args({2, 40, 0})
    ->Args({2, 40, 1})
    ->Args({10, 160, 0})
    ->Args({10, 160, 1});

// The same per-entry loop the algorithms ran before the SoA refactor:
// Rect-based MinDistSq over a vector of entries (pointer-chasing layout).
void BM_LegacyMinDistLoop(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  common::Rng rng(12);
  std::vector<rstar::Entry> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back(rstar::Entry::ForChild(
        RandomRect(dim, rng), static_cast<rstar::PageId>(i + 2), 1));
  }
  const geometry::Point q = RandomPoint(dim, rng);
  std::vector<double> out(static_cast<size_t>(n));
  for (auto _ : state) {
    for (size_t i = 0; i < entries.size(); ++i) {
      out[i] = geometry::MinDistSq(q, entries[i].mbr);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LegacyMinDistLoop)
    ->Args({2, 40})
    ->Args({5, 40})
    ->Args({10, 160});

// Node -> FlatNode conversion: the once-per-decode cost the kernels
// amortize over every visit of a cached page.
void BM_FlatNodeFromNode(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  common::Rng rng(14);
  rstar::Node node;
  node.id = 1;
  node.level = 1;
  for (int i = 0; i < n; ++i) {
    node.entries.push_back(rstar::Entry::ForChild(
        RandomRect(dim, rng), static_cast<rstar::PageId>(i + 2), 1));
  }
  for (auto _ : state) {
    core::FlatNode f = core::FlatNode::FromNode(node, dim);
    benchmark::DoNotOptimize(f.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatNodeFromNode)->Args({2, 40})->Args({10, 160});

// Incremental build of the repository benchmark's two index shapes
// (perfbench/README.md), both on 4 KB pages: 40k clustered 2-d points
// (knn-disk) and 20k uniform 8-d points (knn-hot).
void BM_TreeInsert(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const workload::Dataset data =
      dim == 2 ? workload::MakeClustered(40000, 2, 10, 0.1, 6)
               : workload::MakeUniform(20000, dim, 6);
  for (auto _ : state) {
    rstar::TreeConfig cfg;
    cfg.dim = dim;
    cfg.page_size_bytes = 4096;
    rstar::RStarTree tree(cfg);
    workload::InsertAll(data, &tree);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_TreeInsert)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ExactKnn(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const workload::Dataset data = workload::MakeClustered(30000, 2, 20, 0.1, 7);
  rstar::TreeConfig cfg;
  cfg.dim = 2;
  cfg.page_size_bytes = 1024;
  rstar::RStarTree tree(cfg);
  workload::InsertAll(data, &tree);
  common::Rng rng(8);
  for (auto _ : state) {
    const geometry::Point q = RandomPoint(2, rng);
    benchmark::DoNotOptimize(core::ExactKnn(tree, q, k));
  }
}
BENCHMARK(BM_ExactKnn)->Arg(1)->Arg(10)->Arg(100);

// --- Page checksum and the cache-miss path ---------------------------------

// CRC32C of one 4 KB page. Arg 0 = Crc32cExtend (SSE4.2 where the CPU has
// it), Arg 1 = the portable table routine.
void BM_Crc32c4K(benchmark::State& state) {
  const bool table = state.range(0) != 0;
  std::vector<uint8_t> page(4096);
  common::Rng rng(13);
  for (auto& b : page) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table ? storage::Crc32cExtendTable(0, page.data(), page.size())
              : storage::Crc32cExtend(0, page.data(), page.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
  state.SetLabel(table ? "table"
                       : (storage::Crc32cUsesSse42() ? "sse4.2" : "table"));
}
BENCHMARK(BM_Crc32c4K)->Arg(0)->Arg(1);

// One full cache miss through StoredIndexReader — store read, checksum,
// validation and FlatNode arena — cycling over every live page of the
// repository benchmark's two index shapes (4 KB pages, Proximity Index on
// 10 disks, in memory so no media time is included): Arg 2 = 40k
// clustered 2-d points (knn-disk), Arg 8 = 20k uniform 8-d (knn-hot).
void BM_ReadFlatRecord(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const workload::Dataset data =
      dim == 2 ? workload::MakeClustered(40000, 2, 10, 0.1, 6)
               : workload::MakeUniform(20000, dim, 6);
  rstar::TreeConfig cfg;
  cfg.dim = dim;
  cfg.page_size_bytes = 4096;
  parallel::DeclusterConfig dc;
  dc.num_disks = 10;
  dc.policy = parallel::DeclusterPolicy::kProximityIndex;
  const auto index = workload::BuildParallelIndex(data, cfg, dc);
  storage::MemPageStore store(dc.num_disks);
  SQP_CHECK(storage::SaveIndex(*index, &store).ok());
  auto reader = exec::StoredIndexReader::Open(&store);
  SQP_CHECK(reader.ok());
  const std::vector<rstar::PageId> live = index->tree().LiveNodeIds();
  size_t next = 0;
  for (auto _ : state) {
    auto flat = (*reader)->ReadFlatNode(live[next]);
    benchmark::DoNotOptimize(flat.ok());
    next = next + 1 == live.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadFlatRecord)->Arg(2)->Arg(8);

// --- Execution-engine primitives ------------------------------------------

exec::FlatNode CacheNode(rstar::PageId id) {
  rstar::Node node;
  node.id = id;
  node.level = 0;
  for (int i = 0; i < 40; ++i) {
    geometry::Point p{static_cast<geometry::Coord>(i), 0.5f};
    node.entries.push_back(
        rstar::Entry::ForObject(p, static_cast<rstar::ObjectId>(i)));
  }
  return exec::FlatNode::FromNode(node, 2);
}

// Pure hit path: every lookup pins a resident page.
void BM_PageCacheHit(benchmark::State& state) {
  exec::PageCacheOptions options;
  options.capacity_pages = 1024;
  options.shards = 16;
  exec::ShardedPageCache cache(options);
  for (rstar::PageId id = 0; id < 256; ++id) {
    cache.InsertPinned(id, CacheNode(id), 1);
    cache.Unpin(id);
  }
  common::Rng rng(9);
  for (auto _ : state) {
    const rstar::PageId id =
        static_cast<rstar::PageId>(rng.UniformInt(0, 255));
    benchmark::DoNotOptimize(cache.LookupPinned(id));
    cache.Unpin(id);
  }
}
BENCHMARK(BM_PageCacheHit);

// Miss + insert + eviction path: the working set is double the capacity.
void BM_PageCacheMissInsert(benchmark::State& state) {
  exec::PageCacheOptions options;
  options.capacity_pages = 128;
  options.shards = 16;
  exec::ShardedPageCache cache(options);
  common::Rng rng(10);
  for (auto _ : state) {
    const rstar::PageId id =
        static_cast<rstar::PageId>(rng.UniformInt(0, 255));
    const exec::FlatNode* node = cache.LookupPinned(id);
    if (node == nullptr) {
      node = cache.InsertPinned(id, CacheNode(id), 1);
    }
    benchmark::DoNotOptimize(node);
    cache.Unpin(id);
  }
}
BENCHMARK(BM_PageCacheMissInsert);

// Contended pin/unpin: all threads hammer the same resident pages. The
// ->Threads() counts show how far the lock sharding carries.
void BM_PageCacheContendedPin(benchmark::State& state) {
  static exec::ShardedPageCache* cache = nullptr;
  if (state.thread_index() == 0) {
    exec::PageCacheOptions options;
    options.capacity_pages = 1024;
    options.shards = 16;
    cache = new exec::ShardedPageCache(options);
    for (rstar::PageId id = 0; id < 64; ++id) {
      cache->InsertPinned(id, CacheNode(id), 1);
      cache->Unpin(id);
    }
  }
  common::Rng rng(11 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const rstar::PageId id =
        static_cast<rstar::PageId>(rng.UniformInt(0, 63));
    benchmark::DoNotOptimize(cache->LookupPinned(id));
    cache->Unpin(id);
  }
  if (state.thread_index() == 0) {
    state.SetItemsProcessed(state.iterations() * state.threads());
    delete cache;
    cache = nullptr;
  }
}
BENCHMARK(BM_PageCacheContendedPin)->Threads(1)->Threads(4)->Threads(8);

// Batched vs one-at-a-time file-store reads of the same 32 pages:
// FilePageStore::ReadPages merges offset-adjacent requests of one disk
// into single preads (here 32 pages on 4 disks become 4 syscalls).
void BM_StoreReads(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr size_t kPage = 4096;
  constexpr size_t kPages = 32;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sqp_bench_micro.store")
          .string();
  std::filesystem::remove_all(dir);
  auto store = storage::FilePageStore::Create(dir, 4);
  std::vector<uint8_t> zeros(kPage * kPages, 0);
  for (int d = 0; d < 4; ++d) {
    benchmark::DoNotOptimize(
        (*store)->WriteAt(d, 0, zeros.data(), zeros.size()).ok());
  }
  std::vector<uint8_t> buf(kPage * kPages);
  for (auto _ : state) {
    if (batched) {
      std::vector<storage::ReadRequest> requests;
      for (size_t i = 0; i < kPages; ++i) {
        requests.push_back({static_cast<int>(i % 4), (i / 4) * kPage,
                            buf.data() + i * kPage, kPage});
      }
      benchmark::DoNotOptimize((*store)->ReadPages(requests).ok());
    } else {
      for (size_t i = 0; i < kPages; ++i) {
        benchmark::DoNotOptimize(
            (*store)
                ->ReadAt(static_cast<int>(i % 4), (i / 4) * kPage,
                         buf.data() + i * kPage, kPage)
                .ok());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPages));
  if (state.thread_index() == 0) {
    store->reset();
    std::filesystem::remove_all(dir);
  }
}
BENCHMARK(BM_StoreReads)->Arg(0)->Arg(1);

// Uncontended in-flight table round trip: leader Begin + Complete. The
// coalescer sits on the serial_io miss path, so its fixed cost must stay
// negligible next to a pread + decode.
void BM_ReadCoalescerLeader(benchmark::State& state) {
  exec::ReadCoalescer coalescer;
  common::Status ignored;
  for (auto _ : state) {
    const bool leader = coalescer.BeginOrWait(7, &ignored);
    benchmark::DoNotOptimize(leader);
    coalescer.Complete(7, common::Status::OK());
  }
}
BENCHMARK(BM_ReadCoalescerLeader);

}  // namespace
}  // namespace sqp

BENCHMARK_MAIN();
