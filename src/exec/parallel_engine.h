// Real concurrent query engine over a persisted index.
//
// Where sim::QueryEngine *models* the paper's queueing network in virtual
// time, this engine *is* that network in wall-clock time, built from three
// pieces:
//
//   * DiskIoPool — one I/O worker + FIFO queue per disk, mirroring the
//     declustering assignment: an activation batch of b pages on b disks
//     issues b concurrent reads (the paper's intra-query parallelism).
//   * ShardedPageCache — pin/unpin LRU cache of decoded nodes shared by
//     all in-flight queries (the DBMS buffer manager of the setting).
//   * StoredIndexReader — PageId -> (disk, offset) resolution with
//     per-disk batching and adjacent-pread merging underneath.
//
// Queries run the *unchanged* resumable state machines of src/core/
// (BBSS/FPSS/CRSS/WOPTSS): the engine fetches each step's batch — cache
// first, then per-disk jobs for the misses — delivers the pages in request
// order, and therefore returns bit-identical k-NN results to the
// sequential executor. RunBatch admits many queries concurrently on a
// fixed pool of query threads (the multiuser scenario's in-flight limit).

#ifndef SQP_EXEC_PARALLEL_ENGINE_H_
#define SQP_EXEC_PARALLEL_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/algorithms.h"
#include "core/knn_result.h"
#include "exec/coalescer.h"
#include "exec/io_pool.h"
#include "exec/page_cache.h"
#include "exec/stored_index.h"
#include "geometry/point.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_tree.h"
#include "storage/index_io.h"
#include "storage/mutable_index.h"
#include "storage/page_store.h"

namespace sqp::exec {

// Which IoBackend carries the engine's disk work (docs/EXECUTION.md,
// "I/O backends"). kUring is a request, not a guarantee: when the runtime
// probe or ring setup fails the engine silently falls back to kThreads
// and records why (io_backend_fallback_reason()). Results are
// bit-identical across backends.
enum class IoBackendKind {
  kThreads,  // DiskIoPool: one blocking worker thread per disk
  kUring,    // UringIoBackend: one completion reactor, io_uring submission
};

struct EngineOptions {
  // Concurrent in-flight queries (query worker threads of RunBatch).
  int query_threads = 8;
  // Page cache capacity in disk pages; 0 disables caching (every fetch
  // reads the store).
  size_t cache_pages = 4096;
  int cache_shards = 16;
  // Bypass the per-disk workers: misses are read one page at a time on
  // the calling thread, so nothing overlaps. This is the single-disk-
  // at-a-time system the paper's speedup figures compare against;
  // benchmarks use it as the baseline. Results are identical either way.
  bool serial_io = false;
  // Per-disk I/O queue bound (see DiskIoPoolOptions::max_queue_depth).
  size_t io_queue_depth = 1024;
  // Backend the per-disk reads run on. Ignored in serial_io mode (no
  // backend work there). See IoBackendKind.
  IoBackendKind io_backend = IoBackendKind::kThreads;
  // How hard the stored-index reader fights transient media faults
  // before a record's failure surfaces as the query's status.
  RetryPolicy retry;
  // Observability (docs/OBSERVABILITY.md). With enable_metrics the engine
  // and every component under it (cache, I/O pool, reader) report into a
  // MetricsRegistry — the caller's via `metrics`, or one the engine owns
  // when `metrics` is null. false runs the whole stack unmetered (the
  // benchmark's overhead baseline).
  bool enable_metrics = true;
  obs::MetricsRegistry* metrics = nullptr;
  // Span ring-buffer capacity of the per-query trace recorder; 0 disables
  // tracing entirely.
  size_t trace_capacity = 4096;
};

// Shared cancellation token for one in-flight query. The owner (a server
// session, a client connection handler) sets `cancel`; the engine checks
// it at every step boundary — where no page pins are held — so a
// cancelled query never leaks a pinned cache frame. Must outlive the
// query it is attached to.
struct QueryControl {
  std::atomic<bool> cancel{false};
};

// One k-NN query admitted to the engine.
struct EngineQuery {
  geometry::Point point;
  size_t k = 10;
  core::AlgorithmKind algo = core::AlgorithmKind::kCrss;
  // Wall-clock budget in seconds, measured from the moment the engine
  // starts the query; 0 = none. A query that exceeds it stops at the next
  // step boundary with StatusCode::kDeadlineExceeded (and the outcome's
  // deadline_exceeded flag), keeping partial work out of the result.
  double deadline_s = 0.0;
  // Optional external cancellation token (see QueryControl); not owned.
  const QueryControl* control = nullptr;
};

// Options for RunTraversal — the generic form RunQuery is built on.
struct TraversalOptions {
  // Name recorded on the traversal's trace spans; must outlive the call
  // (string literals do).
  const char* algo_name = "traversal";
  // As EngineQuery::deadline_s / EngineQuery::control.
  double deadline_s = 0.0;
  const QueryControl* control = nullptr;
  // Called on the query thread after each completed step, with that
  // step's page pins already released. Streaming callers drain the
  // traversal's stable results here (see core::PagedDistanceBrowser).
  std::function<void()> on_step;
};

// Outcome of one query: the value (neighbors) or the error (status), plus
// per-query execution and fault counters. A failing page degrades exactly
// the queries that touch it — `status` carries the descriptive error, the
// engine and its worker pools stay fully serviceable.
struct QueryOutcome {
  common::Status status;
  // Ascending distance, ties by object id — same order as
  // KnnResultSet::Sorted() under the sequential executor.
  std::vector<core::Neighbor> neighbors;
  size_t pages_fetched = 0;
  size_t steps = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  // Fault accounting for this query's store reads: failed read/decode
  // attempts observed, and attempts re-issued by the retry policy. A
  // query with ok() status and nonzero counters survived transient
  // faults with a bit-identical result.
  uint64_t io_faults = 0;
  uint64_t io_retries = 0;
  // Backend reads this query avoided by sharing another query's work:
  // in-flight read joins (serial_io) plus pages found already cached by
  // the second-chance probe inside its disk jobs (pooled mode).
  uint64_t coalesced_reads = 0;
  // True when the query stopped because its deadline passed (status then
  // carries StatusCode::kDeadlineExceeded). Lets callers separate "the
  // system was too slow" from data errors without string matching.
  bool deadline_exceeded = false;
  double latency_s = 0.0;
  // Engine-unique id tying this outcome to its trace spans.
  uint64_t query_id = 0;
};

// Historical name, kept for call sites that predate the fault counters.
using QueryAnswer = QueryOutcome;

class ParallelQueryEngine {
 public:
  // `index` supplies the tree the algorithms are constructed against
  // (config, root, and WOPTSS's oracle); all page *contents* served to the
  // algorithms are read from `store` and checksum-verified. Both must
  // outlive the engine; the store must hold the saved image of `index`.
  static common::Result<std::unique_ptr<ParallelQueryEngine>> Create(
      const parallel::ParallelRStarTree& index,
      const storage::PageStore* store, const EngineOptions& options);

  // Serves queries from a durably mutable index while Insert/Delete/
  // Checkpoint proceed concurrently. Every traversal runs against an
  // immutable layout snapshot captured under the index's reader lock
  // (with the algorithm constructed and Begin() run under that same hold,
  // since construction walks the live tree), inside an epoch the index's
  // checkpointer drains before reclaiming bytes — so a query never
  // observes a torn, reclaimed or half-committed node. Checkpoints
  // (explicit or background-compaction folds) flip the index to a fresh
  // generation mid-serve: the engine reads through the index's switchable
  // store facade, which is retargeted under the same drain, and the flip
  // arrives as a full-invalidate commit callback. The engine registers
  // the index's commit callback to retire superseded cache frames;
  // `index` must outlive the engine, and only one engine may be attached
  // to it at a time.
  static common::Result<std::unique_ptr<ParallelQueryEngine>> CreateMutable(
      storage::MutableIndex* index, const EngineOptions& options);

  ~ParallelQueryEngine();

  ParallelQueryEngine(const ParallelQueryEngine&) = delete;
  ParallelQueryEngine& operator=(const ParallelQueryEngine&) = delete;

  // Runs one query to completion on the calling thread (I/O still fans
  // out across the per-disk workers). Thread-safe. A page fault that
  // survives the retry policy fails only this query's outcome.
  QueryOutcome RunQuery(const EngineQuery& query);

  // Runs an arbitrary batch traversal (a streaming browser, a range
  // query) through the same fetch/cache/retry/trace stack as RunQuery,
  // honouring the options' deadline and cancellation token at every step
  // boundary. The traversal object carries the results; the outcome's
  // neighbors stay empty. Thread-safe in the same sense as RunQuery.
  QueryOutcome RunTraversal(core::BatchTraversal* traversal,
                            const TraversalOptions& options);

  // Runs all queries with at most `options.query_threads` in flight,
  // returning outcomes in input order. Failed queries occupy their slot
  // with a non-OK status; the batch always completes.
  std::vector<QueryOutcome> RunBatch(const std::vector<EngineQuery>& queries);

  const ShardedPageCache& cache() const { return *cache_; }
  const StoredIndexReader& reader() const { return *reader_; }
  int num_disks() const { return reader_->num_disks(); }

  // The backend actually serving I/O ("threads" or "uring") — may differ
  // from the requested EngineOptions::io_backend after a fallback.
  const char* io_backend_name() const { return io_pool_->name(); }
  // Why a kUring request ended up on threads (probe failure, serial_io,
  // ...); empty when the requested backend is the active one.
  const std::string& io_backend_fallback_reason() const {
    return io_fallback_reason_;
  }
  // The live backend, for tests asserting its conservation identities.
  const IoBackend& io_backend() const { return *io_pool_; }

  // The registry this engine (and its cache/pool/reader) reports into —
  // the external one from EngineOptions::metrics or the engine-owned one.
  // Null when the engine was created with enable_metrics = false.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  // Span recorder of per-query traces; null when trace_capacity was 0.
  const obs::TraceRecorder* trace() const { return trace_.get(); }

 private:
  ParallelQueryEngine(const parallel::ParallelRStarTree& index,
                      std::unique_ptr<StoredIndexReader> reader,
                      const EngineOptions& options);

  // Fetches `ids` — cache first, then one DiskIoPool job per missed disk —
  // and stores pinned nodes into `slots` (aligned with `ids`), with each
  // slot's cache key in `keys` (pass these to Unpin). PageIds resolve
  // through `layout`, the traversal's snapshot — the reader's own layout
  // against an immutable store, a MutableIndex snapshot otherwise. On
  // error every successfully pinned slot is unpinned and cleared. `span`,
  // when non-null, receives this step's cache/io breakdown (trace
  // recording).
  common::Status FetchBatch(const std::vector<rstar::PageId>& ids,
                            const storage::IndexLayout& layout,
                            std::vector<const FlatNode*>* slots,
                            std::vector<uint64_t>* keys,
                            QueryOutcome* outcome, obs::TraceSpan* span);

  // `factory` constructs (or just returns) the traversal and is invoked
  // exactly once — under the mutable index's reader lock when attached to
  // one, so that algorithm construction and Begin() observe a consistent
  // tree state matching the captured layout snapshot.
  QueryOutcome RunTraversalImpl(
      const std::function<core::BatchTraversal*()>& factory,
      const TraversalOptions& options, uint64_t query_id);

  // Books the finished traversal into the engine counters and records its
  // whole-query trace span (shared RunQuery/RunTraversal epilogue; pairs
  // with the inflight gauge increment made before RunTraversalImpl).
  void FinishTraversal(QueryOutcome* answer, const TraversalOptions& options,
                       uint64_t query_id);

  const parallel::ParallelRStarTree& index_;
  EngineOptions options_;
  // Non-null when created through CreateMutable: the durably mutable
  // index whose snapshots, reader lock and epoch gate every traversal
  // rides (see RunTraversalImpl).
  storage::MutableIndex* mindex_ = nullptr;

  // Observability plumbing. The instruments live in metrics_ (owned or
  // external); the pointers below are null when unmetered. Declared
  // before the reader/cache/pool so the registry outlives them: an I/O
  // worker still observes its service-time histogram after the job's
  // completion rendezvous fires, so the pool must join its workers
  // (its destructor) before the registry goes away. An external
  // EngineOptions::metrics registry must outlive the engine for the
  // same reason.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::TraceRecorder> trace_;

  std::unique_ptr<StoredIndexReader> reader_;
  std::unique_ptr<ShardedPageCache> cache_;
  // In-flight read table for serial_io mode; pooled mode coalesces via
  // the per-disk worker serialization + second-chance cache probe.
  ReadCoalescer coalescer_;
  // Empty unless a requested backend could not be built (see accessor).
  std::string io_fallback_reason_;
  // Declared last so it is destroyed first: the backend's threads drain
  // before the cache_ and reader_ their jobs touch go away.
  std::unique_ptr<IoBackend> io_pool_;
  std::atomic<uint64_t> next_query_id_{0};
  struct Instruments {
    obs::Counter* queries = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* steps = nullptr;
    obs::Counter* page_requests = nullptr;
    obs::Counter* pages_fetched = nullptr;
    obs::Counter* coalesced = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Histogram* latency_seconds = nullptr;
    obs::Histogram* batch_pages = nullptr;
  } instr_;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_PARALLEL_ENGINE_H_
