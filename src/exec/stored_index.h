// Page-id-level read access to a persisted index image.
//
// storage::PageStore speaks (disk, offset, len); the execution engine
// speaks PageIds. StoredIndexReader bridges the two using the on-disk
// directory (storage::ReadIndexLayout): it resolves each PageId to its
// primary record's location, groups batch reads per disk, and lets the
// store merge offset-adjacent records into single preads. Every record is
// checksum-verified and decoded on the way in — straight from the page
// bytes into the core::FlatNode the engine's page cache stores
// (storage::DecodeFlatNode) — so a damaged page surfaces as a Status at
// query time, never as a wrong answer.
//
// The read path is hardened against failing media (docs/FAULTS.md):
// transient errors (Status::Unavailable) and checksum corruption — which
// in-flight damage such as a torn read or bus bit flip also produces —
// are retried per record with capped exponential backoff, re-verifying
// the checksum on every attempt. Only a record that stays bad through
// RetryPolicy::max_attempts (or fails with a permanent error class)
// surfaces to the caller, carrying the attempt count in its message.

#ifndef SQP_EXEC_STORED_INDEX_H_
#define SQP_EXEC_STORED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/flat_node.h"
#include "obs/metrics.h"
#include "rstar/types.h"
#include "storage/index_io.h"
#include "storage/page_store.h"

namespace sqp::exec {

// How hard the reader fights transient faults before giving up on a
// record. The default retries three times over ~a few milliseconds —
// enough to ride out intermittent EIO and in-flight corruption without
// stalling a query noticeably when the fault is permanent after all.
struct RetryPolicy {
  int max_attempts = 4;              // total attempts per record; 1 = no retry
  double initial_backoff_s = 0.0002; // sleep before the first re-attempt
  double backoff_multiplier = 4.0;
  double max_backoff_s = 0.01;       // backoff cap (the "capped" part)
};

// Fault accounting for one read call (and, summed, for one query).
struct IoFaultCounters {
  uint64_t faults = 0;   // read/decode attempts that failed
  uint64_t retries = 0;  // attempts re-issued after a retryable failure

  void Add(const IoFaultCounters& o) {
    faults += o.faults;
    retries += o.retries;
  }
};

// Process-lifetime totals of the reader, for aggregate reporting.
struct ReaderFaultTotals {
  uint64_t faults = 0;          // failed attempts observed
  uint64_t retries = 0;         // re-attempts issued
  uint64_t failed_records = 0;  // records that exhausted every attempt
};

// True for the error classes a retry can heal: transient unavailability
// and checksum corruption. Everything else (truncated file, bad argument,
// permanent media error) fails immediately.
bool IsRetryableReadError(const common::Status& s);

// A batched read split into its plan and its finish. PlanBatchRead sizes
// one contiguous buffer and lays one ReadRequest per record into it; the
// caller then executes the requests however it likes — the reader's own
// ReadPages call, or a completion-driven I/O backend — and finishes each
// record with FinishFlatRecord, which carries the exact decode /
// fault-count / retry-fallback semantics of ReadFlatNodesAt.
//
// `requests[i].buf` points into `bytes`, so a plan may be MOVED but never
// copied while the requests are outstanding.
struct ReadBatchPlan {
  std::vector<rstar::PageId> ids;
  std::vector<storage::PageLocation> locs;
  std::vector<uint8_t> bytes;
  std::vector<storage::ReadRequest> requests;  // one per record, into bytes
  // PlanReadRuns(requests).size(): physical media accesses the batch costs
  // after offset-adjacent records merge. The reader's media-read totals
  // count the batch at plan time (a plan is always executed).
  size_t planned_media_reads = 0;
};

class StoredIndexReader {
 public:
  // Reads and validates the store's layout. `store` must outlive the
  // reader and its contents must not change while the reader is in use.
  static common::Result<std::unique_ptr<StoredIndexReader>> Open(
      const storage::PageStore* store, const RetryPolicy& retry = {});

  // Builds a reader over a caller-supplied layout instead of the store's
  // on-disk directory — the mutable-index path, where the authoritative
  // page map is a storage::MutableIndex snapshot, not the base image's
  // superblocks. The reader's own layout() is a point-in-time copy used
  // for num_disks/config only; per-query resolution goes through the
  // ...At() entry points below with locations from the query's snapshot.
  // Unlike Open(), the store's contents MAY grow while the reader is in
  // use (copy-on-write appends); bytes under any location handed to the
  // ...At() calls must stay immutable, which MutableIndex guarantees.
  static common::Result<std::unique_ptr<StoredIndexReader>> OpenWithLayout(
      const storage::PageStore* store, storage::IndexLayout layout,
      const RetryPolicy& retry = {});

  const storage::IndexLayout& layout() const { return layout_; }
  int num_disks() const { return layout_.decluster.num_disks; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Primary record location of `id`; InvalidArgument if not live.
  common::Result<storage::PageLocation> LocationOf(rstar::PageId id) const;

  // Reads and decodes one node record, retrying transient faults.
  common::Result<core::FlatNode> ReadFlatNode(
      rstar::PageId id, IoFaultCounters* counters = nullptr) const;

  // Reads and decodes a batch of node records, appended to `out` in `ids`
  // order. The fault-free fast path issues one PageStore::ReadPages call,
  // so records on the same disk that are adjacent in the file cost a
  // single pread; records that fail the batched read or its per-record
  // decode fall back to individual retried reads, so one bad page never
  // forces the whole batch to be re-read. On error, `out` keeps only what
  // it held before the call. Safe to call from several threads
  // concurrently. `counters`, when non-null, accumulates this call's
  // fault activity (the per-query counters of QueryOutcome).
  common::Status ReadFlatNodes(std::span<const rstar::PageId> ids,
                               std::vector<core::FlatNode>* out,
                               IoFaultCounters* counters = nullptr) const;

  // Location-explicit forms: read the record for `ids[i]` at `locs[i]`
  // instead of resolving through the reader's own layout. The engine's
  // per-query snapshots resolve PageIds themselves (a mutable index moves
  // PageIds between commits), then read here. Same batching, retry and
  // fault semantics as the id-resolved forms. `locs` must align with
  // `ids` and every span must be nonzero.
  common::Result<core::FlatNode> ReadFlatNodeAt(
      rstar::PageId id, const storage::PageLocation& loc,
      IoFaultCounters* counters = nullptr) const;
  common::Status ReadFlatNodesAt(std::span<const rstar::PageId> ids,
                                 std::span<const storage::PageLocation> locs,
                                 std::vector<core::FlatNode>* out,
                                 IoFaultCounters* counters = nullptr) const;

  // --- Split batched read: plan / execute / finish --------------------
  // The completion-driven engine path. PlanBatchRead validates the
  // locations and builds the buffer + requests (counting the batch's
  // planned media reads); the caller executes the requests; then
  // NoteBatchOutcome accounts the batch-level status (retryable failure
  // invalidates the buffer and falls back per record, permanent failure
  // is returned for the caller to propagate) and FinishFlatRecord
  // delivers record `i` — decoding from the plan's buffer when
  // `bytes_valid`, otherwise re-reading just that record through the
  // retry loop. Each delivered record is counted exactly as on the
  // ReadFlatNodesAt path.
  common::Status PlanBatchRead(std::span<const rstar::PageId> ids,
                               std::span<const storage::PageLocation> locs,
                               ReadBatchPlan* plan) const;
  common::Status NoteBatchOutcome(const common::Status& batch,
                                  bool* bytes_valid,
                                  IoFaultCounters* counters) const;
  common::Result<core::FlatNode> FinishFlatRecord(
      ReadBatchPlan* plan, size_t i, bool bytes_valid,
      IoFaultCounters* counters) const;

  // The store this reader reads from (the engine hands it to kernel-native
  // I/O backends, which probe it for raw fds).
  const storage::PageStore* store() const { return store_; }

  // Physical media accesses issued so far: merged batch runs at plan time
  // plus every individual (retry) read. pages_read / media_reads is the
  // pages-per-read figure the hot-neighbor placement pass exists to raise.
  uint64_t media_reads() const {
    return media_reads_.load(std::memory_order_relaxed);
  }

  // Aggregate fault activity since the reader was opened.
  ReaderFaultTotals fault_totals() const;

  // Registers the reader's instruments on `registry` and reports into
  // them from then on: sqp_reader_records_read_total, per-disk
  // sqp_reader_pages_read_total{disk=d} (each counted once per record
  // delivered, so their sum equals the pages the engine fetched from the
  // store), fault/retry/failed-record counters mirroring fault_totals(),
  // and read/decode/retry latency histograms (docs/OBSERVABILITY.md).
  // Call once, before the reader is shared across threads.
  void EnableMetrics(obs::MetricsRegistry* registry);

 private:
  StoredIndexReader(const storage::PageStore* store,
                    storage::IndexLayout layout, RetryPolicy retry)
      : store_(store), layout_(std::move(layout)), retry_(retry) {}

  // Reads + decodes one record with the retry loop; `buf` is scratch of
  // at least span * page_size bytes. Each attempt decodes once.
  common::Result<core::FlatNode> ReadOneWithRetry(
      rstar::PageId id, const storage::PageLocation& loc, uint8_t* buf,
      IoFaultCounters* counters) const;

  common::Result<core::FlatNode> DecodeRecord(rstar::PageId id,
                                           const storage::PageLocation& loc,
                                           const uint8_t* buf) const;

  const storage::PageStore* store_;  // not owned
  storage::IndexLayout layout_;
  RetryPolicy retry_;

  mutable std::atomic<uint64_t> total_faults_{0};
  mutable std::atomic<uint64_t> total_retries_{0};
  mutable std::atomic<uint64_t> total_failed_records_{0};
  mutable std::atomic<uint64_t> media_reads_{0};

  // Registry instruments (EnableMetrics); all null when unmetered.
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_faults_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_failed_records_ = nullptr;
  obs::Counter* m_media_reads_ = nullptr;
  std::vector<obs::Counter*> m_pages_by_disk_;
  obs::Histogram* m_read_seconds_ = nullptr;
  obs::Histogram* m_decode_seconds_ = nullptr;
  obs::Histogram* m_retry_seconds_ = nullptr;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_STORED_INDEX_H_
