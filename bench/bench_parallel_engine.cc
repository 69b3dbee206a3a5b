// Throughput of the real concurrent engine (src/exec/) vs query-thread
// count, over a 10-disk persisted index.
//
//   $ bench_parallel_engine [--json=BENCH_parallel_engine.json]
//       [--queries=300] [--n=30000] [--disks=10] [--throttle=0.002]
//       [--faults=0] [--fault-seed=1998]
//
// --faults=<rate> switches the binary to the fault-injection smoke run
// (docs/FAULTS.md): a >= 1000-query batch executes against the same image
// with bit flips, torn reads and transient EIO injected at <rate> per read
// plus one permanently dead page record, and the run checks that the batch
// completes with zero aborts, every successful query is bit-identical to
// the fault-free run, and every permanent-fault query carries a non-OK
// status. Exit code 0 means all three held.
//
// Two series, both over the same saved FilePageStore image:
//
//   warm       large page cache, one warm-up pass first: every fetch is a
//              cache hit, so queries are pure CPU. Thread scaling here is
//              bounded by the machine's core count (on a single-core host
//              it is ~1x by construction — the series exists to show the
//              engine adds no slowdown, not to show speedup).
//   throttled  each media access charged a fixed service time (--throttle
//              seconds, default 2 ms — a fast drive of the paper's era),
//              with a small 64-page cache that keeps the root and inner
//              levels resident (the usual DBMS setup). Leaf fetches — the
//              bulk of the I/O, spread over all disks by the declustering
//              — pay the service time, so queries are I/O-bound and the
//              per-disk worker threads genuinely overlap: an activation
//              batch of b pages on b disks costs one service time, not b,
//              and concurrent queries keep all spindles busy. This is the
//              regime the paper's disk array targets, and where the >= 3x
//              scaling claim is made.
//
// Results are printed as a table and written as JSON (--json=<path>) with
// queries/sec, p50/p95/p99 latency (exact sorted-sample and registry-
// histogram estimates) and cache hit rate per configuration, plus a
// `metering` object comparing metered vs unmetered throughput on the
// 8-thread throttled configuration (the observability layer's measured
// overhead; the bar is < 3%).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "exec/parallel_engine.h"
#include "obs/metrics.h"
#include "storage/fault_injection.h"
#include "storage/index_io.h"
#include "storage/page_store.h"

namespace {

using namespace sqp;

struct RunResult {
  int threads = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
  double mean_pages = 0.0;
  // Latency percentiles as the engine's own registry histogram estimates
  // them (bucket interpolation, docs/OBSERVABILITY.md) — the numbers an
  // operator scraping sqp_engine_query_latency_seconds would see, next to
  // the exact sorted-sample ones above. Zero when run unmetered.
  double reg_p50_ms = 0.0;
  double reg_p95_ms = 0.0;
  double reg_p99_ms = 0.0;
  // Backend reads avoided by cross-query coalescing, summed over the
  // timed batch.
  uint64_t coalesced_reads = 0;
};

// One timed RunBatch on a fresh engine with `threads` query threads.
RunResult RunOnce(const parallel::ParallelRStarTree& index,
                  const storage::PageStore* store,
                  const std::vector<exec::EngineQuery>& queries, int threads,
                  size_t cache_pages, bool warm_up, bool serial_io = false,
                  bool metered = true,
                  exec::IoBackendKind io_backend =
                      exec::IoBackendKind::kThreads) {
  exec::EngineOptions options;
  options.query_threads = threads;
  options.cache_pages = cache_pages;
  options.serial_io = serial_io;
  options.enable_metrics = metered;
  options.io_backend = io_backend;
  if (!metered) options.trace_capacity = 0;
  auto engine = exec::ParallelQueryEngine::Create(index, store, options);
  SQP_CHECK(engine.ok());
  if (warm_up) {
    (void)(*engine)->RunBatch(queries);
  }
  const exec::PageCacheStats before = (*engine)->cache().GetStats();

  const auto start = std::chrono::steady_clock::now();
  const std::vector<exec::QueryAnswer> answers = (*engine)->RunBatch(queries);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> latencies;
  double pages = 0.0;
  uint64_t coalesced = 0;
  for (const exec::QueryAnswer& a : answers) {
    SQP_CHECK(a.status.ok());
    latencies.push_back(a.latency_s);
    pages += static_cast<double>(a.pages_fetched);
    coalesced += a.coalesced_reads;
  }
  std::sort(latencies.begin(), latencies.end());

  const exec::PageCacheStats after = (*engine)->cache().GetStats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);

  RunResult r;
  r.threads = threads;
  r.qps = static_cast<double>(answers.size()) / wall;
  r.p50_ms = 1e3 * latencies[latencies.size() / 2];
  r.p95_ms = 1e3 * latencies[latencies.size() * 95 / 100];
  r.p99_ms = 1e3 * latencies[latencies.size() * 99 / 100];
  r.hit_rate = hits + misses == 0 ? 0.0 : hits / (hits + misses);
  r.mean_pages = pages / static_cast<double>(answers.size());
  r.coalesced_reads = coalesced;
  if (metered) {
    // Registry view of the same latencies (warm-up queries included — the
    // histogram is cumulative — but they run the identical workload, so
    // the estimates stay representative).
    const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
    if (const obs::HistogramSnapshot* h =
            snap.FindHistogram("sqp_engine_query_latency_seconds")) {
      r.reg_p50_ms = 1e3 * h->Quantile(0.50);
      r.reg_p95_ms = 1e3 * h->Quantile(0.95);
      r.reg_p99_ms = 1e3 * h->Quantile(0.99);
    }
  }
  return r;
}

// `baseline_qps` anchors the speedup column (the series' own first row
// when 0).
void PrintSeries(const char* name, const std::vector<RunResult>& series,
                 double baseline_qps = 0.0, bool uring_active = false) {
  if (baseline_qps == 0.0) baseline_qps = series.front().qps;
  std::printf("\n%s:\n%8s %10s %10s %10s %10s %8s %8s %9s %9s\n", name,
              "threads", "q/s", "p50(ms)", "p95(ms)", "p99(ms)", "hit%",
              "pages", "coalesce", "speedup");
  for (const RunResult& r : series) {
    std::printf("%8d %10.0f %10.3f %10.3f %10.3f %7.0f%% %8.1f %9llu %8.2fx\n",
                r.threads, r.qps, r.p50_ms, r.p95_ms, r.p99_ms,
                100 * r.hit_rate, r.mean_pages,
                static_cast<unsigned long long>(r.coalesced_reads),
                r.qps / baseline_qps);
  }
  // The uring backend parks no thread per disk — the reactor drives every
  // spindle from one thread — so the worker-thread oversubscription
  // caveat does not apply to it.
  if (uring_active) return;
  const unsigned hw = std::thread::hardware_concurrency();
  for (const RunResult& r : series) {
    if (hw > 0 && static_cast<unsigned>(r.threads) > hw) {
      std::printf(
          "  WARNING: sweep reaches %d query threads but this host has "
          "only %u hardware thread(s); rows beyond %u measure "
          "oversubscription, not CPU scaling.\n",
          series.back().threads, hw, hw);
      break;
    }
  }
}

void JsonSeries(bench::JsonWriter* w, const char* name,
                const std::vector<RunResult>& series,
                double baseline_qps = 0.0) {
  if (baseline_qps == 0.0) baseline_qps = series.front().qps;
  const unsigned hw = std::thread::hardware_concurrency();
  w->BeginArray(name);
  for (const RunResult& r : series) {
    w->BeginObject();
    w->Field("threads", r.threads);
    w->Field("oversubscribed",
             hw > 0 && static_cast<unsigned>(r.threads) > hw);
    w->Field("queries_per_sec", r.qps, 5);
    w->Field("p50_latency_ms", r.p50_ms, 5);
    w->Field("p95_latency_ms", r.p95_ms, 5);
    w->Field("p99_latency_ms", r.p99_ms, 5);
    w->Field("registry_p50_latency_ms", r.reg_p50_ms, 5);
    w->Field("registry_p95_latency_ms", r.reg_p95_ms, 5);
    w->Field("registry_p99_latency_ms", r.reg_p99_ms, 5);
    w->Field("cache_hit_rate", r.hit_rate, 4);
    w->Field("mean_pages_per_query", r.mean_pages, 4);
    w->Field("coalesced_reads", r.coalesced_reads);
    w->Field("speedup_vs_baseline", r.qps / baseline_qps, 4);
    w->EndObject();
  }
  w->EndArray();
}

bool SameNeighbors(const std::vector<core::Neighbor>& a,
                   const std::vector<core::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object || a[i].dist_sq != b[i].dist_sq) {
      return false;
    }
  }
  return true;
}

// The acceptance smoke of the fault-injection harness: zero aborts,
// bit-identical successes, non-OK permanent-fault queries.
int RunFaultSmoke(const parallel::ParallelRStarTree& index,
                  storage::PageStore* store,
                  const std::vector<exec::EngineQuery>& queries, double rate,
                  uint64_t seed) {
  exec::EngineOptions options;
  options.query_threads = 8;
  // No cache: every fetch touches the (faulty) media, so the whole batch
  // exercises the retry path instead of the first few queries only.
  options.cache_pages = 0;

  auto clean = exec::ParallelQueryEngine::Create(index, store, options);
  SQP_CHECK(clean.ok());
  const std::vector<exec::QueryOutcome> reference =
      (*clean)->RunBatch(queries);
  for (const exec::QueryOutcome& r : reference) SQP_CHECK(r.status.ok());

  storage::FaultInjectingPageStore faulty(store, seed);
  // Create first, arm after: the layout bootstrap read stays clean, the
  // query-time record reads see every fault.
  auto engine = exec::ParallelQueryEngine::Create(index, &faulty, options);
  SQP_CHECK(engine.ok());
  for (storage::FaultKind kind :
       {storage::FaultKind::kBitFlip, storage::FaultKind::kTornRead,
        storage::FaultKind::kTransientError}) {
    storage::FaultSpec spec;
    spec.kind = kind;
    spec.probability = rate;
    faulty.AddFault(spec);
  }
  // One permanently dead record: the root page. With the cache disabled
  // every query starts by reading it, so exactly max_hits queries must
  // fail — with a descriptive status, not an abort.
  const auto root_loc =
      (*engine)->reader().LocationOf((*engine)->reader().layout().root);
  SQP_CHECK(root_loc.ok());
  storage::FaultSpec perm;
  perm.kind = storage::FaultKind::kPermanentError;
  perm.disk = root_loc->disk;
  perm.offset_lo = root_loc->offset;
  perm.offset_hi = root_loc->offset + 1;
  perm.max_hits = 3;
  faulty.AddFault(perm);

  const std::vector<exec::QueryOutcome> outcomes =
      (*engine)->RunBatch(queries);
  SQP_CHECK(outcomes.size() == queries.size());

  size_t ok_count = 0, failed = 0;
  uint64_t io_faults = 0, io_retries = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    io_faults += outcomes[i].io_faults;
    io_retries += outcomes[i].io_retries;
    if (outcomes[i].status.ok()) {
      ++ok_count;
      SQP_CHECK(SameNeighbors(outcomes[i].neighbors,
                              reference[i].neighbors));
    } else {
      ++failed;
      SQP_CHECK(!outcomes[i].status.message().empty());
    }
  }
  const storage::FaultInjectionStats fs = faulty.stats();
  // The permanent spec disarmed after max_hits injections; each one is a
  // non-retryable failure, so at least that many queries must have failed
  // (retry-exhausted transients may add more), and some queries must have
  // survived injected faults via retries.
  SQP_CHECK(fs.by_kind[static_cast<int>(
                storage::FaultKind::kPermanentError)] == 3);
  SQP_CHECK(failed >= 3);
  SQP_CHECK(ok_count > 0);
  SQP_CHECK(io_retries > 0);

  std::printf(
      "\nfault smoke: %zu queries, fault rate %.3f per read (seed %llu)\n"
      "  outcomes   %zu ok (all bit-identical to fault-free run), "
      "%zu failed with non-OK status, zero aborts\n"
      "  injector   %llu faults over %llu reads (flip %llu, torn %llu, "
      "eio %llu, dead-page %llu)\n"
      "  reader     %llu failed attempts observed, %llu retries issued\n"
      "FAULT SMOKE PASS\n",
      outcomes.size(), rate, static_cast<unsigned long long>(seed),
      ok_count, failed, static_cast<unsigned long long>(fs.faults),
      static_cast<unsigned long long>(fs.reads),
      static_cast<unsigned long long>(
          fs.by_kind[static_cast<int>(storage::FaultKind::kBitFlip)]),
      static_cast<unsigned long long>(
          fs.by_kind[static_cast<int>(storage::FaultKind::kTornRead)]),
      static_cast<unsigned long long>(fs.by_kind[static_cast<int>(
          storage::FaultKind::kTransientError)]),
      static_cast<unsigned long long>(fs.by_kind[static_cast<int>(
          storage::FaultKind::kPermanentError)]),
      static_cast<unsigned long long>(io_faults),
      static_cast<unsigned long long>(io_retries));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::ArgValue(argc, argv, "json", "BENCH_parallel_engine.json");
  const size_t n_queries = static_cast<size_t>(
      std::atol(bench::ArgValue(argc, argv, "queries", "300").c_str()));
  const size_t n_points = static_cast<size_t>(
      std::atol(bench::ArgValue(argc, argv, "n", "30000").c_str()));
  const int disks =
      std::atoi(bench::ArgValue(argc, argv, "disks", "10").c_str());
  const double throttle =
      std::atof(bench::ArgValue(argc, argv, "throttle", "0.002").c_str());
  const double fault_rate =
      std::atof(bench::ArgValue(argc, argv, "faults", "0").c_str());
  const uint64_t fault_seed = static_cast<uint64_t>(
      std::atol(bench::ArgValue(argc, argv, "fault-seed", "1998").c_str()));
  // I/O backend of the headline series: threads (default, comparable to
  // the historical JSONs) or uring. A uring request on a kernel without
  // io_uring prints the probe's reason and proceeds on threads — the same
  // graceful fallback the engine itself makes.
  const std::string io_mode = bench::ArgValue(argc, argv, "io", "threads");
  SQP_CHECK(io_mode == "threads" || io_mode == "uring");
  const exec::UringProbe uring_probe = exec::ProbeIoUring();
  exec::IoBackendKind io_kind = exec::IoBackendKind::kThreads;
  std::string io_active = "threads";
  if (io_mode == "uring") {
    if (uring_probe.available) {
      io_kind = exec::IoBackendKind::kUring;
      io_active = "uring";
    } else {
      std::printf("--io=uring requested but io_uring is unavailable (%s); "
                  "running on threads\n",
                  uring_probe.detail.c_str());
    }
  }
  const bool uring_active = io_kind == exec::IoBackendKind::kUring;
  const size_t k = 10;
  const int threads[] = {1, 2, 4, 8};

  bench::PrintHeader(
      "Real engine throughput vs query threads",
      "CRSS, k=10, " + std::to_string(n_points) + " clustered points, " +
          std::to_string(disks) + " disks (PI), " +
          std::to_string(n_queries) + " queries, page 4096; host has " +
          std::to_string(std::thread::hardware_concurrency()) +
          " core(s)");

  const workload::Dataset data =
      workload::MakeClustered(n_points, 2, 20, 0.1, bench::kDatasetSeed);
  auto index =
      bench::BuildIndex(data, disks, bench::kResponseTimePageSize);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sqp_bench_engine.index")
          .string();
  std::filesystem::remove_all(dir);
  const common::Status saved = storage::SaveIndexToDir(*index, dir);
  SQP_CHECK(saved.ok());
  auto store = storage::FilePageStore::Open(dir);
  SQP_CHECK(store.ok());
  std::printf("index: %zu pages saved to %s\n", index->tree().NodeCount(),
              dir.c_str());

  const auto points = workload::MakeQueryPoints(
      data, n_queries, workload::QueryDistribution::kDataDistributed,
      bench::kQuerySeed);
  std::vector<exec::EngineQuery> queries;
  for (const geometry::Point& q : points) {
    queries.push_back({q, k, core::AlgorithmKind::kCrss});
  }

  if (fault_rate > 0) {
    // The acceptance smoke runs at least 1000 queries.
    std::vector<exec::EngineQuery> smoke_queries = queries;
    while (smoke_queries.size() < 1000) {
      smoke_queries.insert(smoke_queries.end(), queries.begin(),
                           queries.end());
    }
    const int rc = RunFaultSmoke(*index, store->get(), smoke_queries,
                                 fault_rate, fault_seed);
    std::filesystem::remove_all(dir);
    return rc;
  }

  // The warm runs finish a query in tens of microseconds; repeat the list
  // so each timed run spans hundreds of milliseconds of wall clock.
  std::vector<exec::EngineQuery> warm_queries;
  for (int rep = 0; rep < 20; ++rep) {
    warm_queries.insert(warm_queries.end(), queries.begin(), queries.end());
  }

  std::vector<RunResult> warm;
  for (int t : threads) {
    warm.push_back(RunOnce(*index, store->get(), warm_queries, t,
                           /*cache_pages=*/8192, /*warm_up=*/true,
                           /*serial_io=*/false, /*metered=*/true, io_kind));
  }
  PrintSeries("warm cache (CPU-bound; scaling bounded by core count)",
              warm, 0.0, uring_active);

  // The single-threaded baseline: same engine, same cache, but every
  // missed page is one blocking read — the single-disk-at-a-time system
  // the paper's speedup figures compare against.
  storage::ThrottledPageStore slow(store->get(), throttle);
  const RunResult serial =
      RunOnce(*index, &slow, queries, /*threads=*/1, /*cache_pages=*/64,
              /*warm_up=*/true, /*serial_io=*/true);
  std::printf(
      "\nserial baseline (1 thread, one blocking read per page): %.0f q/s, "
      "p50 %.3f ms\n",
      serial.qps, serial.p50_ms);

  // Throttled media. Each row takes the best of kThrottledReps reps
  // (min-time benchmarking, same rationale as the metering measurement:
  // interference only ever slows a run).
  constexpr int kThrottledReps = 3;
  std::vector<RunResult> throttled;
  for (int t : threads) {
    RunResult best;
    for (int rep = 0; rep < kThrottledReps; ++rep) {
      const RunResult r = RunOnce(*index, &slow, queries, t,
                                  /*cache_pages=*/64, /*warm_up=*/true,
                                  /*serial_io=*/false, /*metered=*/true,
                                  io_kind);
      if (rep == 0 || r.qps > best.qps) best = r;
    }
    throttled.push_back(best);
  }
  PrintSeries(
      "throttled media (I/O-bound; per-disk workers overlap; speedup vs "
      "serial baseline)",
      throttled, serial.qps, uring_active);

  // Threads vs uring, point-for-point on the same throttled media. Best
  // of kIoCompareReps alternating reps per side — more than the other
  // sweeps because the bar ("uring never loses") is pointwise. The
  // throttle decorator hides the store's raw fds, so uring's batches run
  // on its per-disk executors; the comparison isolates the architectural
  // difference under identical per-access charged service times. The
  // threads backend parks ONE worker per disk, so a wave whose batch
  // merges into R runs on a disk serializes R charges there; the
  // completion-driven backend submits each merged run independently up to
  // its per-disk window (per-run READV SQEs on the ring, per-run executor
  // jobs here), overlapping those charges — deep per-device queue depth
  // is the point of the design, and it shows at every thread count.
  constexpr int kIoCompareReps = 7;
  std::vector<RunResult> io_threads_series, io_uring_series;
  if (uring_probe.available) {
    for (int t : threads) {
      RunResult th, ur;
      for (int rep = 0; rep < kIoCompareReps; ++rep) {
        // Alternate which side runs first so slow drift on a shared
        // host (cache state, background load) cannot systematically
        // favor one backend.
        const auto run_threads = [&] {
          return RunOnce(*index, &slow, queries, t,
                         /*cache_pages=*/64, /*warm_up=*/true);
        };
        const auto run_uring = [&] {
          return RunOnce(*index, &slow, queries, t, /*cache_pages=*/64,
                         /*warm_up=*/true, /*serial_io=*/false,
                         /*metered=*/true, exec::IoBackendKind::kUring);
        };
        RunResult a, u;
        if (rep % 2 == 0) {
          a = run_threads();
          u = run_uring();
        } else {
          u = run_uring();
          a = run_threads();
        }
        if (rep == 0 || a.qps > th.qps) th = a;
        if (rep == 0 || u.qps > ur.qps) ur = u;
      }
      io_threads_series.push_back(th);
      io_uring_series.push_back(ur);
    }
    PrintSeries("io backend: threads (throttled media)", io_threads_series,
                serial.qps);
    PrintSeries("io backend: uring (throttled media)", io_uring_series,
                serial.qps, /*uring_active=*/true);
    for (size_t i = 0; i < io_uring_series.size(); ++i) {
      const double ratio = io_uring_series[i].qps / io_threads_series[i].qps;
      std::printf("  uring vs threads at %d threads: %.3fx%s\n",
                  io_uring_series[i].threads, ratio,
                  ratio < 1.0 ? "  (uring losing!)" : "");
    }
  } else {
    std::printf("\nio backend comparison skipped: %s\n",
                uring_probe.detail.c_str());
  }

  // Hot-neighbor placement (storage::SaveIndexOptions): the same tree
  // saved with and without the placement pass, read through the same
  // throttled store. k-NN activation batches cannot show the effect by
  // design — declustering spreads each activation batch one page per
  // disk, so there is nothing for the layout to merge. The access
  // pattern the placement targets is the multi-child expansion (range
  // queries, breadth traversals, sibling runs): every
  // internal node's children batch-read through the StoredIndexReader
  // that serves the engine. pages/read is delivered pages over physical
  // media accesses (merged runs; StoredIndexReader::media_reads) — the
  // figure the placement exists to raise; fewer runs means fewer
  // charged service times on slow media. A k-NN run over both images
  // guards that placement stays neutral for the paper's own workload.
  const std::string legacy_dir = dir + ".legacy";
  std::filesystem::remove_all(legacy_dir);
  auto legacy_files = storage::FilePageStore::Create(legacy_dir, disks);
  SQP_CHECK(legacy_files.ok());
  storage::SaveIndexOptions legacy_opts;
  legacy_opts.hot_neighbor_placement = false;
  SQP_CHECK(storage::SaveIndex(*index, legacy_files->get(), legacy_opts)
                .ok());
  struct PlacementRow {
    double pages_per_read = 0.0;
    double sweep_s = 0.0;  // wall time of the expansion sweep
    double qps = 0.0;      // k-NN guard (expected ~neutral)
    uint64_t media_reads = 0;
    uint64_t pages = 0;
  };
  const auto measure_placement =
      [&](const storage::PageStore* base) -> PlacementRow {
    storage::ThrottledPageStore throttled_store(base, throttle);
    PlacementRow row;
    {
      auto sweep_reader = exec::StoredIndexReader::Open(&throttled_store);
      SQP_CHECK(sweep_reader.ok());
      const auto start = std::chrono::steady_clock::now();
      for (rstar::PageId id : index->tree().LiveNodeIds()) {
        const rstar::Node& n = index->tree().node(id);
        if (n.IsLeaf()) continue;
        std::vector<rstar::PageId> children;
        children.reserve(n.entries.size());
        for (const rstar::Entry& e : n.entries) children.push_back(e.child);
        std::vector<core::FlatNode> nodes;
        SQP_CHECK((*sweep_reader)->ReadFlatNodes(children, &nodes).ok());
        row.pages += children.size();
      }
      row.sweep_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      row.media_reads = (*sweep_reader)->media_reads();
      row.pages_per_read = static_cast<double>(row.pages) /
                           static_cast<double>(row.media_reads);
    }
    exec::EngineOptions options;
    options.query_threads = 4;
    options.cache_pages = 64;
    options.io_backend = io_kind;
    auto engine = exec::ParallelQueryEngine::Create(*index, &throttled_store,
                                                    options);
    SQP_CHECK(engine.ok());
    const auto start = std::chrono::steady_clock::now();
    const auto answers = (*engine)->RunBatch(queries);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    for (const exec::QueryAnswer& a : answers) SQP_CHECK(a.status.ok());
    row.qps = static_cast<double>(answers.size()) / wall;
    return row;
  };
  const PlacementRow placed = measure_placement(store->get());
  const PlacementRow legacy = measure_placement(legacy_files->get());
  std::printf(
      "\nhot-neighbor placement (sibling-expansion sweep, throttled "
      "media):\n"
      "  placed  %6.3f pages/read (%llu pages over %llu media reads), "
      "sweep %.2fs, k-NN %.0f q/s\n"
      "  legacy  %6.3f pages/read (%llu pages over %llu media reads), "
      "sweep %.2fs, k-NN %.0f q/s\n"
      "  -> %.2fx pages per media read%s\n",
      placed.pages_per_read,
      static_cast<unsigned long long>(placed.pages),
      static_cast<unsigned long long>(placed.media_reads), placed.sweep_s,
      placed.qps, legacy.pages_per_read,
      static_cast<unsigned long long>(legacy.pages),
      static_cast<unsigned long long>(legacy.media_reads), legacy.sweep_s,
      legacy.qps, placed.pages_per_read / legacy.pages_per_read,
      placed.pages_per_read <= legacy.pages_per_read
          ? "  (placement not helping!)"
          : "");
  std::filesystem::remove_all(legacy_dir);

  // Metering overhead: the observability layer on vs fully off (no
  // registry, no trace) in the warm-cache single-thread configuration —
  // every fetch is a hit, so queries are pure CPU and each instrument
  // write lands on the critical path; this is the layer's worst case in
  // relative terms. One thread keeps the measurement stable on small
  // hosts (the 8-thread throttled runs above schedule chaotically on a
  // one-core machine). Shared-host interference only ever slows a run
  // down, so each side's best of nine alternating reps is its
  // least-disturbed sample (min-time benchmarking) and the overhead is
  // the ratio of the two bests. The acceptance bar is < 3% regression
  // (docs/OBSERVABILITY.md).
  double metered_qps = 0.0, unmetered_qps = 0.0;
  for (int rep = 0; rep < 9; ++rep) {
    for (const bool metered : {true, false}) {
      const RunResult r = RunOnce(*index, store->get(), warm_queries,
                                  /*threads=*/1, /*cache_pages=*/8192,
                                  /*warm_up=*/true, /*serial_io=*/false,
                                  metered);
      double& best = metered ? metered_qps : unmetered_qps;
      best = std::max(best, r.qps);
    }
  }
  const double overhead_pct =
      100.0 * (1.0 - metered_qps / unmetered_qps);
  std::printf(
      "\nmetering overhead (warm cache, 1 thread, best of 9): %.0f q/s "
      "metered vs %.0f q/s unmetered -> %.2f%% overhead\n",
      metered_qps, unmetered_qps, overhead_pct);

  bench::JsonWriter w;
  w.BeginObject();
  bench::StampBenchMeta(&w, io_active);
  w.Field("bench", "parallel_engine");
  w.Field("algo", "crss");
  w.Field("k", static_cast<uint64_t>(k));
  w.Field("points", static_cast<uint64_t>(n_points));
  w.Field("queries", static_cast<uint64_t>(n_queries));
  w.Field("disks", disks);
  w.Field("page_size", bench::kResponseTimePageSize);
  w.Field("throttle_read_latency_s", throttle, 4);
  w.Field("host_hardware_threads",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.BeginObject("serial_baseline");
  w.Field("queries_per_sec", serial.qps, 5);
  w.Field("p50_latency_ms", serial.p50_ms, 5);
  w.Field("p95_latency_ms", serial.p95_ms, 5);
  w.Field("p99_latency_ms", serial.p99_ms, 5);
  w.Field("cache_hit_rate", serial.hit_rate, 4);
  w.EndObject();
  JsonSeries(&w, "warm_cache", warm);
  JsonSeries(&w, "throttled_media", throttled, serial.qps);
  if (!io_uring_series.empty()) {
    JsonSeries(&w, "io_backend_threads", io_threads_series, serial.qps);
    JsonSeries(&w, "io_backend_uring", io_uring_series, serial.qps);
  }
  w.BeginObject("hot_neighbor_placement");
  w.Field("placed_pages_per_media_read", placed.pages_per_read, 5);
  w.Field("legacy_pages_per_media_read", legacy.pages_per_read, 5);
  w.Field("placed_media_reads", placed.media_reads);
  w.Field("legacy_media_reads", legacy.media_reads);
  w.Field("placed_sweep_seconds", placed.sweep_s, 5);
  w.Field("legacy_sweep_seconds", legacy.sweep_s, 5);
  w.Field("placed_knn_queries_per_sec", placed.qps, 5);
  w.Field("legacy_knn_queries_per_sec", legacy.qps, 5);
  w.EndObject();
  w.BeginObject("metering");
  w.Field("metered_queries_per_sec", metered_qps, 5);
  w.Field("unmetered_queries_per_sec", unmetered_qps, 5);
  w.Field("metering_overhead_pct", overhead_pct, 4);
  w.EndObject();
  w.EndObject();
  w.WriteFile(json_path);

  std::filesystem::remove_all(dir);
  return 0;
}
