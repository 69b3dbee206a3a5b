// Durable mutation of a stored index: write-ahead log + copy-on-write
// pages + crash-atomic generation checkpoints (docs/STORAGE.md).
//
// A MutableIndex opens the CURRENT generation of a GenerationEnv — one
// saved index image (index_io.h) plus that generation's one-disk
// write-ahead log — and makes Insert/Delete crash-atomic:
//
//   1. The in-memory R*-tree applies the operation while a
//      rstar::MutationRecorder collects every page it touched.
//   2. Each surviving touched page is re-encoded and APPENDED at its
//      disk's file tail — never overwriting the base image or any earlier
//      version — and the data store is synced (copy-on-write).
//   3. One WAL commit record (new root, new object count, page-map
//      deltas) is appended and synced. This append IS the commit point:
//      crash before it and recovery sees the pre-op index; crash after
//      and recovery replays the record onto the base layout. A crash
//      mid-append leaves a torn tail the scanner provably drops, and the
//      orphan page bytes it may reference are dead garbage until the next
//      checkpoint reclaims them.
//   4. A fresh immutable IndexLayout snapshot is published; queries opened
//      against the old snapshot keep reading the old locations, whose
//      bytes step 2 never disturbed.
//
// Checkpoint() folds the log crash-atomically: it saves the live tree
// into a NEW generation (write-aside — the current generation's bytes
// are never touched), syncs it, then flips the env's CURRENT pointer.
// The flip is the commit point: a crash anywhere before it recovers to
// the old generation with its full WAL intact; a crash after it recovers
// to the folded image with an empty WAL (each generation carries its own
// log, so the flip atomically discards the folded records). The
// generation left behind either way is an orphan the next Open()
// garbage-collects. Readers are drained through the EpochGate first and
// the engine-facing data_store() is a SwitchablePageStore retargeted to
// the new generation under the writer lock.
//
// Background compaction: StartCompaction(policy) spawns a thread that
// calls Checkpoint() whenever the WAL outgrows the policy's byte/record
// thresholds (respecting min_interval). Off by default — explicit
// Checkpoint() calls remain valid and count separately from automatic
// ones in MutationStats.
//
// Cross-process exclusion: OpenFromDir takes a `LOCK` file in the index
// directory (lock_file.h) — a second opener, same process or not, gets
// kFailedPrecondition while the first holds it; stale locks from dead
// processes are broken automatically.
//
// Concurrency contract: one writer at a time (Insert/Delete/Checkpoint
// serialize on the writer lock). Readers snapshot under the shared lock:
//
//   shared_lock lk(idx.reader_mutex());
//   if (idx.failed()) ...;                     // poisoned by an I/O error
//   auto snap = idx.layout_snapshot_locked();  // immutable page map
//   uint64_t epoch = idx.gate().Enter();       // pin bytes vs checkpoint
//   ... construct traversal over idx.index().tree() ...
//   lk.unlock();            // traversal runs lock-free off `snap`
//   ...
//   idx.gate().Exit(epoch);
//
// If a commit-path write fails midway the in-memory tree is ahead of the
// durable state; the index poisons itself (failed()) and every later
// mutation or snapshot refuses, exactly as if the machine had died — the
// on-disk state recovers to the last durable commit. A checkpoint that
// fails BEFORE the pointer flip does NOT poison: the current generation
// was never touched, so the index simply keeps running on it.

#ifndef SQP_STORAGE_MUTABLE_INDEX_H_
#define SQP_STORAGE_MUTABLE_INDEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "obs/metrics.h"
#include "parallel/parallel_tree.h"
#include "storage/epoch_gate.h"
#include "storage/generation.h"
#include "storage/index_io.h"
#include "storage/lock_file.h"
#include "storage/page_store.h"
#include "storage/wal.h"

namespace sqp::storage {

// What Open() found (also mirrored into the metrics registry by
// EnableMetrics, where the conservation identity
//   sqp_wal_records_total == applied + replayed + torn_tail_dropped
// must hold on every scrape).
struct RecoveryStats {
  uint64_t wal_records = 0;        // valid records scanned
  uint64_t replayed = 0;           // records replayed onto the base layout
  uint64_t torn_tail_dropped = 0;  // 0 or 1: a crashed append's remnant
  uint64_t generation = 0;         // the generation CURRENT named
  uint64_t orphan_generations_removed = 0;  // crashed-checkpoint leftovers
};

// Runtime mutation totals since Open().
struct MutationStats {
  uint64_t commits = 0;        // WAL records appended (== applied ops)
  uint64_t cow_pages = 0;      // node records written copy-on-write
  uint64_t checkpoints = 0;    // generation folds, explicit + automatic
  uint64_t auto_checkpoints = 0;  // of those, triggered by the policy
  uint64_t generation = 0;        // current generation number
  uint64_t wal_bytes = 0;         // bytes in the live generation's WAL
  uint64_t wal_bytes_reclaimed = 0;  // WAL bytes folded away, cumulative
};

// When the background thread folds the log. A zero threshold disables
// that trigger; all-zero (the default) disables compaction entirely.
struct CompactionPolicy {
  uint64_t max_wal_bytes = 0;    // fold when the WAL exceeds this size
  uint64_t max_wal_records = 0;  // ... or holds this many commit records
  double min_interval_s = 0;     // but never fold more often than this
};

class MutableIndex {
 public:
  // After every commit: `superseded` holds the PageLocationKeys whose
  // bytes are no longer reachable from the NEW snapshot (older query
  // snapshots may still read them); `full_invalidate` marks a checkpoint
  // (generation flip), after which no pre-checkpoint location is valid at
  // all. Invoked with the writer lock held — must not call back into the
  // index.
  using CommitCallback =
      std::function<void(const std::vector<uint64_t>& superseded,
                         bool full_invalidate)>;

  // Opens the generation named by the env's CURRENT pointer and recovers
  // from that generation's log: valid records are replayed onto the base
  // layout, a torn tail is dropped, and the in-memory tree is rebuilt
  // from the recovered page map with every node re-read and
  // checksum-verified. Orphan generations (leftovers of a crashed
  // checkpoint) are garbage-collected. The env must outlive the index.
  static common::Result<std::unique_ptr<MutableIndex>> Open(
      GenerationEnv* env);

  // Convenience: FileGenerationEnv over `dir`, guarded by `dir`/LOCK.
  // kFailedPrecondition when another live process (or this one) already
  // holds the directory open for writing.
  static common::Result<std::unique_ptr<MutableIndex>> OpenFromDir(
      const std::string& dir);

  ~MutableIndex();

  MutableIndex(const MutableIndex&) = delete;
  MutableIndex& operator=(const MutableIndex&) = delete;

  // Durable point insert. On return the mutation is committed: it
  // survives any later crash.
  common::Status Insert(const geometry::Point& p, rstar::ObjectId id);

  // Durable delete of (p, id). NotFound leaves index and log untouched.
  common::Status Delete(const geometry::Point& p, rstar::ObjectId id);

  // Drains readers, folds the log into a fresh generation and flips
  // CURRENT (see file comment). On success the WAL is empty and the old
  // generation's bytes are reclaimed; on failure before the flip the
  // index keeps running on the old generation un-poisoned.
  common::Status Checkpoint();

  // Starts (or reconfigures) the background compaction thread. No-op
  // policy (all thresholds zero) stops it.
  void StartCompaction(const CompactionPolicy& policy);
  // Stops the background thread; joins it. Safe when never started.
  void StopCompaction();

  // --- Reader protocol (see file comment) --------------------------------

  std::shared_mutex& reader_mutex() const { return rw_mu_; }
  // Requires reader_mutex() held (shared or exclusive).
  std::shared_ptr<const IndexLayout> layout_snapshot_locked() const {
    return layout_;
  }
  EpochGate& gate() const { return gate_; }
  bool failed() const { return failed_; }

  const parallel::ParallelRStarTree& index() const { return *index_; }
  // Stable across generation flips: a SwitchablePageStore the checkpoint
  // retargets under the writer lock. Engines capture this pointer once.
  PageStore* data_store() const { return &facade_; }
  int num_disks() const { return index_->num_disks(); }

  // Installs (or, with null, removes) the commit callback. Serializes
  // against in-flight commits on the writer lock, so after this returns
  // no further invocation of a previously installed callback can begin.
  void SetCommitCallback(CommitCallback cb) {
    std::unique_lock<std::shared_mutex> lock(rw_mu_);
    commit_cb_ = std::move(cb);
  }

  const RecoveryStats& recovery_stats() const { return recovery_; }
  MutationStats mutation_stats() const;

  // Registers sqp_wal_records_total, sqp_wal_applied_total,
  // sqp_wal_replayed_total, sqp_wal_torn_tail_dropped_total,
  // sqp_cow_pages_total and sqp_checkpoints_total on `registry`, seeding
  // the recovery counters with what Open() found. Call once, before the
  // index is shared across threads.
  void EnableMetrics(obs::MetricsRegistry* registry);

 private:
  MutableIndex() = default;

  common::Status Mutate(const geometry::Point& p, rstar::ObjectId id,
                        bool insert);
  common::Status CommitLocked(const std::vector<rstar::PageId>& touched);
  common::Status CheckpointLocked(std::unique_lock<std::shared_mutex>& lock);
  void CompactionLoop();
  // One policy evaluation; checkpoints when a threshold is exceeded.
  void MaybeCompact();

  GenerationEnv* env_ = nullptr;  // not owned (see owned_env_)
  std::unique_ptr<GenerationEnv> owned_env_;
  std::unique_ptr<LockFile> lock_;
  GenerationStores gen_stores_;
  uint64_t generation_ = 0;
  PageStore* data_store_ = nullptr;  // current generation's stores
  PageStore* wal_store_ = nullptr;
  mutable SwitchablePageStore facade_;  // what data_store() hands out

  std::unique_ptr<parallel::ParallelRStarTree> index_;
  std::unique_ptr<WalWriter> wal_;
  std::vector<uint64_t> tails_;  // per-data-disk append offset

  mutable std::shared_mutex rw_mu_;
  mutable EpochGate gate_;
  std::shared_ptr<const IndexLayout> layout_;  // swapped under rw_mu_
  bool failed_ = false;

  CommitCallback commit_cb_;
  RecoveryStats recovery_;
  uint64_t commits_ = 0;
  uint64_t cow_pages_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t auto_checkpoints_ = 0;
  uint64_t wal_bytes_reclaimed_ = 0;
  uint64_t commits_since_checkpoint_ = 0;
  // Empty until this process checkpoints: the first policy-triggered fold
  // is never suppressed by min_interval. (steady_clock's epoch is boot
  // time, so a default-constructed time_point would suppress it on any
  // host up for less than min_interval.)
  std::optional<std::chrono::steady_clock::time_point> last_checkpoint_;

  // Background compaction. compact_mu_ orders only the thread's own
  // state (policy, stop/kick flags); the fold itself takes rw_mu_.
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  std::thread compact_thread_;
  CompactionPolicy compact_policy_;
  bool compact_stop_ = false;
  bool compact_kick_ = false;

  obs::Counter* m_wal_records_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_replayed_ = nullptr;
  obs::Counter* m_torn_dropped_ = nullptr;
  obs::Counter* m_cow_pages_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
};

}  // namespace sqp::storage

#endif  // SQP_STORAGE_MUTABLE_INDEX_H_
