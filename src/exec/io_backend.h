// The seam between the execution engine and its I/O machinery.
//
// The engine schedules one class of disk work: demand reads a query is
// blocked on (docs/EXECUTION.md). How that work reaches the media is a
// backend choice:
//
//   * DiskIoPool ("threads", io_pool.h) — one blocking worker thread per
//     disk, the wall-clock form of the paper's per-spindle FCFS queues.
//   * UringIoBackend ("uring", uring_backend.h) — a single completion
//     reactor driving one io_uring shared by all disks, with deep
//     per-disk in-flight windows and no thread parked per spindle.
//
// The engine's headline invariant — query answers bit-identical to the
// sequential executor — holds under every backend, because delivery
// order is the engine's business, not the backend's.
//
// A backend may additionally be *completion-driven* (completion_driven()
// returns true): the engine then hands it raw byte-level read batches
// (SubmitBatchRead) and resumes the waiting traversal from the backend's
// completion context, instead of wrapping the read in a closure executed
// by a per-disk thread.

#ifndef SQP_EXEC_IO_BACKEND_H_
#define SQP_EXEC_IO_BACKEND_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "storage/page_store.h"

namespace sqp::exec {

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  // Stable identifier for banners, bench metadata and tests: "threads" or
  // "uring".
  virtual const char* name() const = 0;

  virtual int num_disks() const = 0;

  // Closure job on `disk`; blocks while the disk's queue is at capacity.
  // Must not be called from a backend worker/reactor thread.
  virtual void Submit(int disk, std::function<void()> job) = 0;

  // Non-blocking variant: false (job dropped, rejection counted) when the
  // queue is full or the backend is stopping.
  virtual bool TrySubmit(int disk, std::function<void()> job) = 0;

  // True when the backend natively executes byte-level read batches and
  // invokes completions from its own reactor context (SubmitBatchRead).
  virtual bool completion_driven() const { return false; }

  // Completion-driven demand path: read every request of the batch (the
  // backend merges offset-adjacent requests of a disk into single media
  // accesses, exactly like PageStore::ReadPages), then invoke `done` once
  // with the batch outcome from the backend's completion context. The
  // request buffers must stay valid until `done` runs. Blocks the caller
  // only for backpressure, never for the I/O itself. Only meaningful when
  // completion_driven(); the base implementation aborts.
  virtual void SubmitBatchRead(int disk,
                               std::vector<storage::ReadRequest> requests,
                               std::function<void(common::Status)> done) {
    (void)disk;
    (void)requests;
    (void)done;
    SQP_CHECK(false && "backend is not completion-driven");
  }

  // Jobs (closures and read batches) completed so far.
  virtual uint64_t jobs_completed() const = 0;

  // Times a blocking submission stalled for queue space.
  virtual uint64_t backpressure_waits() const = 0;

  // Jobs dropped for lack of queue space.
  virtual uint64_t queue_rejections() const = 0;

  // True when the calling thread belongs to this backend (a worker, an
  // executor, or the completion reactor). Submitting work from one is a
  // contract violation (debug builds abort in Submit).
  virtual bool OnWorkerThread() const = 0;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_IO_BACKEND_H_
