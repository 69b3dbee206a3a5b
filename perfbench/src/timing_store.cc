#include "timing_store.h"

#include <chrono>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

template <typename T>
std::vector<T> Tail(const std::vector<T>& later, size_t from) {
  return std::vector<T>(later.begin() + static_cast<long>(from), later.end());
}

}  // namespace

void StoreStats::RecordRead(std::span<const storage::ReadRequest> requests,
                            double seconds) {
  // A single request is one media read; a batch costs one per merged run.
  const size_t media_reads = requests.size() == 1
                                 ? 1
                                 : storage::PlanReadRuns(requests).size();
  std::lock_guard<std::mutex> lock(mu_);
  totals_.media_reads += media_reads;
  totals_.pages_read += requests.size();
  totals_.read_s.push_back(seconds);
  // A call that spans several disks keeps each of them busy for its
  // whole duration.
  std::vector<double>& busy = totals_.disk_busy_s;
  for (size_t i = 0; i < requests.size(); ++i) {
    const int disk = requests[i].disk;
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) seen = requests[j].disk == disk;
    if (seen) continue;
    if (static_cast<size_t>(disk) >= busy.size()) busy.resize(disk + 1, 0.0);
    busy[static_cast<size_t>(disk)] += seconds;
  }
}

void StoreStats::RecordWrite(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.bytes_written += bytes;
}

void StoreStats::RecordSync(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.sync_s.push_back(seconds);
}

StoreStats::Totals StoreStats::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

StoreStats::Totals Since(const StoreStats::Totals& earlier,
                         const StoreStats::Totals& later) {
  StoreStats::Totals d;
  d.media_reads = later.media_reads - earlier.media_reads;
  d.pages_read = later.pages_read - earlier.pages_read;
  d.bytes_written = later.bytes_written - earlier.bytes_written;
  d.read_s = Tail(later.read_s, earlier.read_s.size());
  d.sync_s = Tail(later.sync_s, earlier.sync_s.size());
  d.disk_busy_s = later.disk_busy_s;
  for (size_t i = 0; i < earlier.disk_busy_s.size(); ++i) {
    d.disk_busy_s[i] -= earlier.disk_busy_s[i];
  }
  return d;
}

common::Status TimingPageStore::ReadAt(int disk, uint64_t offset, void* buf,
                                       size_t len) const {
  const auto start = Clock::now();
  common::Status s = base_->ReadAt(disk, offset, buf, len);
  const storage::ReadRequest req{disk, offset, buf, len};
  stats_->RecordRead(std::span<const storage::ReadRequest>(&req, 1),
                     SecondsSince(start));
  return s;
}

common::Status TimingPageStore::ReadPages(
    std::span<const storage::ReadRequest> requests) const {
  const auto start = Clock::now();
  common::Status s = base_->ReadPages(requests);
  stats_->RecordRead(requests, SecondsSince(start));
  return s;
}

common::Status TimingPageStore::WriteAt(int disk, uint64_t offset,
                                        const void* buf, size_t len) {
  common::Status s = base_->WriteAt(disk, offset, buf, len);
  stats_->RecordWrite(len);
  return s;
}

common::Status TimingPageStore::Sync() {
  const auto start = Clock::now();
  common::Status s = base_->Sync();
  stats_->RecordSync(SecondsSince(start));
  return s;
}

common::Result<storage::GenerationStores> TimingGenerationEnv::Wrap(
    common::Result<storage::GenerationStores> opened) {
  if (!opened.ok()) return opened;
  storage::GenerationStores stores = std::move(opened.value());
  auto data = std::make_unique<TimingPageStore>(stores.data, stats_);
  auto wal = std::make_unique<TimingPageStore>(stores.wal, stats_);
  stores.data = data.get();
  stores.wal = wal.get();
  // Decorators go last: `owned` holds the stores they forward to.
  stores.owned.push_back(std::move(data));
  stores.owned.push_back(std::move(wal));
  return stores;
}

}  // namespace perfbench
