#include "exec/stored_index.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "storage/node_codec.h"
#include "storage/page_format.h"

namespace sqp::exec {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool IsRetryableReadError(const common::Status& s) {
  return s.code() == common::StatusCode::kUnavailable ||
         storage::IsCorruption(s);
}

common::Result<std::unique_ptr<StoredIndexReader>> StoredIndexReader::Open(
    const storage::PageStore* store, const RetryPolicy& retry) {
  if (retry.max_attempts < 1) {
    return common::Status::InvalidArgument("retry max_attempts must be >= 1");
  }
  auto layout = storage::ReadIndexLayout(*store);
  if (!layout.ok()) return layout.status();
  return std::unique_ptr<StoredIndexReader>(
      new StoredIndexReader(store, std::move(*layout), retry));
}

common::Result<std::unique_ptr<StoredIndexReader>>
StoredIndexReader::OpenWithLayout(const storage::PageStore* store,
                                  storage::IndexLayout layout,
                                  const RetryPolicy& retry) {
  if (retry.max_attempts < 1) {
    return common::Status::InvalidArgument("retry max_attempts must be >= 1");
  }
  if (layout.page_size == 0 || layout.decluster.num_disks < 1) {
    return common::Status::InvalidArgument(
        "layout carries no page size / disk count");
  }
  return std::unique_ptr<StoredIndexReader>(
      new StoredIndexReader(store, std::move(layout), retry));
}

common::Result<storage::PageLocation> StoredIndexReader::LocationOf(
    rstar::PageId id) const {
  if (!layout_.IsLive(id)) {
    return common::Status::InvalidArgument(
        "page " + std::to_string(id) + " is not a live index page");
  }
  return layout_.pages[id];
}

void StoredIndexReader::EnableMetrics(obs::MetricsRegistry* registry) {
  m_records_ = registry->GetCounter("sqp_reader_records_read_total");
  m_faults_ = registry->GetCounter("sqp_reader_faults_total");
  m_retries_ = registry->GetCounter("sqp_reader_retries_total");
  m_failed_records_ = registry->GetCounter("sqp_reader_failed_records_total");
  m_media_reads_ = registry->GetCounter("sqp_reader_media_reads_total");
  m_pages_by_disk_.resize(static_cast<size_t>(num_disks()));
  for (int d = 0; d < num_disks(); ++d) {
    m_pages_by_disk_[static_cast<size_t>(d)] = registry->GetCounter(
        obs::WithLabel("sqp_reader_pages_read_total", "disk", d));
  }
  const std::vector<double>& buckets = obs::MetricsRegistry::LatencyBuckets();
  m_read_seconds_ = registry->GetHistogram("sqp_reader_read_seconds", buckets);
  m_decode_seconds_ =
      registry->GetHistogram("sqp_reader_decode_seconds", buckets);
  m_retry_seconds_ =
      registry->GetHistogram("sqp_reader_retry_seconds", buckets);
}

ReaderFaultTotals StoredIndexReader::fault_totals() const {
  ReaderFaultTotals t;
  t.faults = total_faults_.load(std::memory_order_relaxed);
  t.retries = total_retries_.load(std::memory_order_relaxed);
  t.failed_records = total_failed_records_.load(std::memory_order_relaxed);
  return t;
}

common::Result<core::FlatNode> StoredIndexReader::DecodeRecord(
    rstar::PageId id, const storage::PageLocation& loc,
    const uint8_t* buf) const {
  // The record's name is formatted only if a check fails.
  const int disk = loc.disk;
  return storage::DecodeFlatNode(
      buf, loc.span, layout_.tree_config.dim, layout_.page_size, id, [=] {
        return "disk " + std::to_string(disk) + " node record for page " +
               std::to_string(id);
      });
}

common::Result<core::FlatNode> StoredIndexReader::ReadOneWithRetry(
    rstar::PageId id, const storage::PageLocation& loc, uint8_t* buf,
    IoFaultCounters* counters) const {
  const size_t len = static_cast<size_t>(loc.span) * layout_.page_size;
  const double retry_start_s =
      m_retry_seconds_ != nullptr ? NowSeconds() : 0.0;
  common::Status last;
  double backoff = retry_.initial_backoff_s;
  int attempts_made = 0;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      total_retries_.fetch_add(1, std::memory_order_relaxed);
      if (m_retries_ != nullptr) m_retries_->Add(1);
      if (counters != nullptr) ++counters->retries;
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * retry_.backoff_multiplier,
                           retry_.max_backoff_s);
      }
    }
    attempts_made = attempt + 1;
    media_reads_.fetch_add(1, std::memory_order_relaxed);
    if (m_media_reads_ != nullptr) m_media_reads_->Add(1);
    common::Status s = store_->ReadAt(loc.disk, loc.offset, buf, len);
    if (s.ok()) {
      auto node = DecodeRecord(id, loc, buf);
      if (node.ok()) {
        if (m_retry_seconds_ != nullptr) {
          m_retry_seconds_->Observe(NowSeconds() - retry_start_s);
        }
        return node;
      }
      s = node.status();
    }
    total_faults_.fetch_add(1, std::memory_order_relaxed);
    if (m_faults_ != nullptr) m_faults_->Add(1);
    if (counters != nullptr) ++counters->faults;
    last = s;
    if (!IsRetryableReadError(s)) break;  // permanent: retrying cannot help
  }
  total_failed_records_.fetch_add(1, std::memory_order_relaxed);
  if (m_failed_records_ != nullptr) m_failed_records_->Add(1);
  if (m_retry_seconds_ != nullptr) {
    m_retry_seconds_->Observe(NowSeconds() - retry_start_s);
  }
  return common::Status(
      last.code(), last.message() + " (gave up after " +
                       std::to_string(attempts_made) + " attempt(s))");
}

common::Result<core::FlatNode> StoredIndexReader::ReadFlatNode(
    rstar::PageId id, IoFaultCounters* counters) const {
  auto loc = LocationOf(id);
  if (!loc.ok()) return loc.status();
  return ReadFlatNodeAt(id, *loc, counters);
}

common::Status StoredIndexReader::ReadFlatNodes(
    std::span<const rstar::PageId> ids, std::vector<core::FlatNode>* out,
    IoFaultCounters* counters) const {
  std::vector<storage::PageLocation> locs;
  locs.reserve(ids.size());
  for (rstar::PageId id : ids) {
    auto loc = LocationOf(id);
    if (!loc.ok()) return loc.status();
    locs.push_back(*loc);
  }
  return ReadFlatNodesAt(ids, locs, out, counters);
}

common::Result<core::FlatNode> StoredIndexReader::ReadFlatNodeAt(
    rstar::PageId id, const storage::PageLocation& loc,
    IoFaultCounters* counters) const {
  std::vector<core::FlatNode> nodes;
  SQP_RETURN_IF_ERROR(ReadFlatNodesAt(
      std::span<const rstar::PageId>(&id, 1),
      std::span<const storage::PageLocation>(&loc, 1), &nodes, counters));
  return std::move(nodes[0]);
}

common::Status StoredIndexReader::PlanBatchRead(
    std::span<const rstar::PageId> ids,
    std::span<const storage::PageLocation> locs, ReadBatchPlan* plan) const {
  SQP_CHECK(ids.size() == locs.size());
  const size_t page_size = layout_.page_size;
  size_t total_bytes = 0;
  for (const storage::PageLocation& loc : locs) {
    if (loc.span == 0) {
      return common::Status::InvalidArgument(
          "read requested for a freed page location");
    }
    total_bytes += static_cast<size_t>(loc.span) * page_size;
  }
  plan->ids.assign(ids.begin(), ids.end());
  plan->locs.assign(locs.begin(), locs.end());
  plan->bytes.resize(total_bytes);
  plan->requests.clear();
  plan->requests.reserve(ids.size());
  size_t pos = 0;
  for (const storage::PageLocation& loc : locs) {
    storage::ReadRequest r;
    r.disk = loc.disk;
    r.offset = loc.offset;
    r.buf = plan->bytes.data() + pos;
    r.len = static_cast<size_t>(loc.span) * page_size;
    plan->requests.push_back(r);
    pos += r.len;
  }
  plan->planned_media_reads = storage::PlanReadRuns(plan->requests).size();
  media_reads_.fetch_add(plan->planned_media_reads,
                         std::memory_order_relaxed);
  if (m_media_reads_ != nullptr) {
    m_media_reads_->Add(plan->planned_media_reads);
  }
  return common::Status::OK();
}

common::Status StoredIndexReader::NoteBatchOutcome(
    const common::Status& batch, bool* bytes_valid,
    IoFaultCounters* counters) const {
  *bytes_valid = batch.ok();
  if (batch.ok()) return common::Status::OK();
  // The batch API reports only its first error without naming the failing
  // request, so the caller falls back to individual retried reads record
  // by record. A permanent error class fails the call right away.
  total_faults_.fetch_add(1, std::memory_order_relaxed);
  if (m_faults_ != nullptr) m_faults_->Add(1);
  if (counters != nullptr) ++counters->faults;
  if (!IsRetryableReadError(batch)) return batch;
  return common::Status::OK();
}

common::Result<core::FlatNode> StoredIndexReader::FinishFlatRecord(
    ReadBatchPlan* plan, size_t i, bool bytes_valid,
    IoFaultCounters* counters) const {
  const rstar::PageId id = plan->ids[i];
  const storage::PageLocation& loc = plan->locs[i];
  uint8_t* buf = static_cast<uint8_t*>(plan->requests[i].buf);

  common::Result<core::FlatNode> node = common::Status::Unavailable("");
  if (bytes_valid) {
    const double decode_start_s =
        m_decode_seconds_ != nullptr ? NowSeconds() : 0.0;
    node = DecodeRecord(id, loc, buf);
    if (m_decode_seconds_ != nullptr) {
      m_decode_seconds_->Observe(NowSeconds() - decode_start_s);
    }
    if (!node.ok()) {
      total_faults_.fetch_add(1, std::memory_order_relaxed);
      if (m_faults_ != nullptr) m_faults_->Add(1);
      if (counters != nullptr) ++counters->faults;
      if (!IsRetryableReadError(node.status())) return node.status();
    }
  }
  if (!node.ok()) {
    // Re-read just this record with the retry loop (its buffer region is
    // private to it, so siblings decoded from the batch stay valid). The
    // fallback's first attempt is itself a re-issued read.
    total_retries_.fetch_add(1, std::memory_order_relaxed);
    if (m_retries_ != nullptr) m_retries_->Add(1);
    if (counters != nullptr) ++counters->retries;
    node = ReadOneWithRetry(id, loc, buf, counters);
    if (!node.ok()) return node.status();
  }
  // Delivered: count the record once, under its disk, so the per-disk
  // page totals sum to exactly what the engine fetched from the store.
  if (m_records_ != nullptr) {
    m_records_->Add(1);
    m_pages_by_disk_[static_cast<size_t>(loc.disk)]->Add(loc.span);
  }
  return node;
}

common::Status StoredIndexReader::ReadFlatNodesAt(
    std::span<const rstar::PageId> ids,
    std::span<const storage::PageLocation> locs,
    std::vector<core::FlatNode>* out, IoFaultCounters* counters) const {
  ReadBatchPlan plan;
  SQP_RETURN_IF_ERROR(PlanBatchRead(ids, locs, &plan));

  // Fault-free fast path: one buffer and one ReadPages call for the whole
  // batch, so the store can merge per-disk adjacent records.
  const double read_start_s =
      m_read_seconds_ != nullptr ? NowSeconds() : 0.0;
  common::Status batch = store_->ReadPages(plan.requests);
  if (m_read_seconds_ != nullptr) {
    m_read_seconds_->Observe(NowSeconds() - read_start_s);
  }
  bool bytes_valid = false;
  SQP_RETURN_IF_ERROR(NoteBatchOutcome(batch, &bytes_valid, counters));

  const size_t first_out = out->size();
  out->reserve(first_out + ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto node = FinishFlatRecord(&plan, i, bytes_valid, counters);
    if (!node.ok()) {
      out->resize(first_out);
      return node.status();
    }
    out->push_back(std::move(*node));
  }
  return common::Status::OK();
}

}  // namespace sqp::exec
