// Fixed pool of per-disk I/O worker threads.
//
// The paper's RAID-0 array serves requests on its D spindles
// independently; the simulator models that with D FCFS queues
// (sim/fcfs_server.h). This is the wall-clock counterpart: one worker
// thread per disk, mirroring the declustering assignment, so an
// activation batch of b pages placed on b different disks really issues
// b concurrent preads against the backing files. Each disk's queue is
// FIFO — exactly the drive-queue model the paper's response-time
// analysis assumes.
//
// With a MetricsRegistry attached, each disk reports its queue behavior —
// the quantities the paper's response-time analysis is built on:
// sqp_io_jobs_total{disk=d}, sqp_io_queue_depth{disk=d}, and the
// sqp_io_wait_seconds / sqp_io_service_seconds histograms (time queued
// before the worker picked the job up / time the job ran).
//
// Queues are bounded (DiskIoPoolOptions::max_queue_depth). Submit blocks
// the submitting query thread until space frees up — backpressure
// instead of unbounded memory growth when queries outrun the media — and
// counts each stall in sqp_io_backpressure_waits_total{disk}. TrySubmit
// never blocks: a full queue rejects the job and counts it in
// sqp_io_queue_rejections_total{disk}. Workers never submit jobs, so the
// blocking path cannot deadlock — and debug builds enforce it: Submit
// asserts it is not running on one of this pool's worker threads.

#ifndef SQP_EXEC_IO_POOL_H_
#define SQP_EXEC_IO_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/io_backend.h"
#include "obs/metrics.h"

namespace sqp::exec {

struct DiskIoPoolOptions {
  // Per-disk queue capacity (jobs queued, not counting the one in
  // service). Deliberately generous: the bound exists to cap memory and
  // surface overload, not to throttle ordinary batches.
  size_t max_queue_depth = 1024;
};

class DiskIoPool : public IoBackend {
 public:
  // Starts one worker per disk. `num_disks` >= 1. When `metrics` is
  // non-null the per-disk instruments above are registered on it; null
  // runs unmetered (no timestamps taken on the hot path).
  explicit DiskIoPool(int num_disks,
                      obs::MetricsRegistry* metrics = nullptr,
                      const DiskIoPoolOptions& options = {});

  // Drains every queue, then joins the workers.
  ~DiskIoPool() override;

  DiskIoPool(const DiskIoPool&) = delete;
  DiskIoPool& operator=(const DiskIoPool&) = delete;

  const char* name() const override { return "threads"; }

  int num_disks() const override { return static_cast<int>(queues_.size()); }

  // Enqueues a job on `disk`'s queue, blocking while the queue is at
  // capacity. The job runs on that disk's worker thread; completion
  // signalling is the caller's business (the engine uses a per-batch
  // counter + condvar). Must not be called from a worker thread — the
  // blocking path would self-deadlock on a full queue — and debug builds
  // abort if it is (see OnWorkerThread).
  void Submit(int disk, std::function<void()> job) override;

  // Non-blocking variant: enqueues `job` if the queue has space, returns
  // false (dropping the job) if it is full or stopping.
  bool TrySubmit(int disk, std::function<void()> job) override;

  // Jobs executed so far, summed over all disks (monotonic).
  uint64_t jobs_completed() const override;

  // Times Submit had to wait for queue space, summed over all disks.
  uint64_t backpressure_waits() const override;

  // Jobs TrySubmit rejected for lack of space, summed over all disks.
  uint64_t queue_rejections() const override;

  // True when the calling thread is one of this pool's I/O workers.
  bool OnWorkerThread() const override;

 private:
  struct QueuedJob {
    std::function<void()> fn;
    double enqueue_s = 0.0;  // only meaningful when metered
  };

  struct DiskQueue {
    mutable std::mutex mu;
    std::condition_variable cv;        // signals the worker: job available
    std::condition_variable space_cv;  // signals submitters: space freed
    std::deque<QueuedJob> jobs;
    uint64_t completed = 0;  // jobs executed
    uint64_t backpressure_waits = 0;
    uint64_t rejections = 0;
    bool stop = false;
    // Instruments (null when unmetered). Written by Submit and the
    // worker; the instruments themselves are thread-safe.
    obs::Counter* jobs_total = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* backpressure_total = nullptr;
    obs::Counter* rejections_total = nullptr;
    obs::Histogram* wait_seconds = nullptr;
    obs::Histogram* service_seconds = nullptr;
  };

  void WorkerLoop(DiskQueue* queue);

  // deque of queues: stable addresses, no copies.
  std::deque<DiskQueue> queues_;
  std::vector<std::thread> workers_;
  bool metered_ = false;
  size_t max_queue_depth_ = 0;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_IO_POOL_H_
