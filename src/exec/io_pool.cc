#include "exec/io_pool.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace sqp::exec {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Identifies the pool (if any) whose worker is running on this thread,
// so Submit can assert it is never called from one — the blocking
// backpressure path would self-deadlock: the worker would wait for the
// queue it alone drains.
thread_local const DiskIoPool* tls_worker_pool = nullptr;

}  // namespace

DiskIoPool::DiskIoPool(int num_disks, obs::MetricsRegistry* metrics,
                       const DiskIoPoolOptions& options) {
  SQP_CHECK(num_disks >= 1);
  SQP_CHECK(options.max_queue_depth >= 1);
  metered_ = metrics != nullptr;
  max_queue_depth_ = options.max_queue_depth;
  for (int d = 0; d < num_disks; ++d) {
    DiskQueue& q = queues_.emplace_back();
    if (metrics != nullptr) {
      q.jobs_total =
          metrics->GetCounter(obs::WithLabel("sqp_io_jobs_total", "disk", d));
      q.queue_depth =
          metrics->GetGauge(obs::WithLabel("sqp_io_queue_depth", "disk", d));
      q.backpressure_total = metrics->GetCounter(
          obs::WithLabel("sqp_io_backpressure_waits_total", "disk", d));
      q.rejections_total = metrics->GetCounter(
          obs::WithLabel("sqp_io_queue_rejections_total", "disk", d));
      q.wait_seconds = metrics->GetHistogram(
          obs::WithLabel("sqp_io_wait_seconds", "disk", d),
          obs::MetricsRegistry::LatencyBuckets());
      q.service_seconds = metrics->GetHistogram(
          obs::WithLabel("sqp_io_service_seconds", "disk", d),
          obs::MetricsRegistry::LatencyBuckets());
    }
  }
  workers_.reserve(static_cast<size_t>(num_disks));
  for (int d = 0; d < num_disks; ++d) {
    workers_.emplace_back([this, d] { WorkerLoop(&queues_[d]); });
  }
}

DiskIoPool::~DiskIoPool() {
  for (DiskQueue& q : queues_) {
    std::lock_guard<std::mutex> lock(q.mu);
    q.stop = true;
    q.cv.notify_all();
    q.space_cv.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

void DiskIoPool::Submit(int disk, std::function<void()> job) {
  SQP_CHECK(disk >= 0 && disk < num_disks());
  // A worker submitting to its own (full) queue waits forever for itself;
  // submitting to a sibling disk can deadlock just as hard once both
  // queues fill. The contract is simply "workers never submit".
  SQP_DCHECK(!OnWorkerThread());
  DiskQueue& q = queues_[static_cast<size_t>(disk)];
  QueuedJob queued;
  queued.fn = std::move(job);
  if (metered_) queued.enqueue_s = NowSeconds();
  std::unique_lock<std::mutex> lock(q.mu);
  SQP_CHECK(!q.stop);
  if (q.jobs.size() >= max_queue_depth_) {
    // Overloaded: stall the submitting query thread until the worker
    // drains a slot. Workers never submit, so this cannot deadlock.
    ++q.backpressure_waits;
    if (q.backpressure_total != nullptr) q.backpressure_total->Add(1);
    q.space_cv.wait(lock, [this, &q] {
      return q.stop || q.jobs.size() < max_queue_depth_;
    });
    SQP_CHECK(!q.stop);
  }
  q.jobs.push_back(std::move(queued));
  if (q.queue_depth != nullptr) q.queue_depth->Add(1);
  q.cv.notify_one();
}

bool DiskIoPool::TrySubmit(int disk, std::function<void()> job) {
  SQP_CHECK(disk >= 0 && disk < num_disks());
  DiskQueue& q = queues_[static_cast<size_t>(disk)];
  QueuedJob queued;
  queued.fn = std::move(job);
  if (metered_) queued.enqueue_s = NowSeconds();
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.stop || q.jobs.size() >= max_queue_depth_) {
    ++q.rejections;
    if (q.rejections_total != nullptr) q.rejections_total->Add(1);
    return false;
  }
  q.jobs.push_back(std::move(queued));
  if (q.queue_depth != nullptr) q.queue_depth->Add(1);
  q.cv.notify_one();
  return true;
}

uint64_t DiskIoPool::jobs_completed() const {
  uint64_t total = 0;
  for (const DiskQueue& q : queues_) {
    std::lock_guard<std::mutex> lock(q.mu);
    total += q.completed;
  }
  return total;
}

uint64_t DiskIoPool::backpressure_waits() const {
  uint64_t total = 0;
  for (const DiskQueue& q : queues_) {
    std::lock_guard<std::mutex> lock(q.mu);
    total += q.backpressure_waits;
  }
  return total;
}

uint64_t DiskIoPool::queue_rejections() const {
  uint64_t total = 0;
  for (const DiskQueue& q : queues_) {
    std::lock_guard<std::mutex> lock(q.mu);
    total += q.rejections;
  }
  return total;
}

bool DiskIoPool::OnWorkerThread() const { return tls_worker_pool == this; }

void DiskIoPool::WorkerLoop(DiskQueue* queue) {
  tls_worker_pool = this;
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(queue->mu);
      queue->cv.wait(lock,
                     [queue] { return queue->stop || !queue->jobs.empty(); });
      if (queue->jobs.empty()) return;  // stopping, and drained
      job = std::move(queue->jobs.front());
      queue->jobs.pop_front();
      if (queue->queue_depth != nullptr) queue->queue_depth->Add(-1);
      queue->space_cv.notify_one();
    }
    double start_s = 0.0;
    if (metered_) {
      start_s = NowSeconds();
      queue->wait_seconds->Observe(start_s - job.enqueue_s);
    }
    job.fn();
    if (metered_) {
      queue->service_seconds->Observe(NowSeconds() - start_s);
      queue->jobs_total->Add(1);
    }
    {
      std::lock_guard<std::mutex> lock(queue->mu);
      ++queue->completed;
    }
  }
}

}  // namespace sqp::exec
