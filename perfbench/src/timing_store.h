// Timing decorators for the traced run (the `storage` rows of README.md).
//
// TimingPageStore forwards every call to the store under it and records,
// per call, what the storage layer did and how long it took: media reads
// (one per merged run of storage::PlanReadRuns, the unit a real disk
// charges), pages read, per-disk busy time, bytes written, and sync
// latency. TimingGenerationEnv wraps every store a GenerationEnv hands
// out, so a MutableIndex opened over it is timed on its data disks and
// its WAL alike.
//
// A decorator reports no raw file descriptor (PageStore::RawFd), so a
// kernel-native backend falls back to ReadPages under it. That changes
// the read path of file-backed stores, which is why only the traced run
// uses these; the untraced run never does.

#ifndef SQP_PERFBENCH_TIMING_STORE_H_
#define SQP_PERFBENCH_TIMING_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "storage/generation.h"
#include "storage/page_store.h"

namespace perfbench {

namespace common = sqp::common;
namespace storage = sqp::storage;

// What every decorator sharing one StoreStats saw. Thread-safe.
class StoreStats {
 public:
  struct Totals {
    uint64_t media_reads = 0;    // merged runs, as PlanReadRuns plans them
    uint64_t pages_read = 0;     // read requests (one page each)
    uint64_t bytes_written = 0;  // WriteAt payload bytes
    std::vector<double> read_s;  // per read call
    std::vector<double> sync_s;  // per Sync call
    std::vector<double> disk_busy_s;  // per disk, read calls only
  };

  void RecordRead(std::span<const storage::ReadRequest> requests,
                  double seconds);
  void RecordWrite(size_t bytes);
  void RecordSync(double seconds);

  // A copy of everything so far; take one at the start of a window and
  // one at its end, and subtract (Since).
  Totals Snapshot() const;

 private:
  mutable std::mutex mu_;
  Totals totals_;
};

// `later` minus `earlier`: counters subtract, sample vectors keep only the
// entries recorded after `earlier` was taken.
StoreStats::Totals Since(const StoreStats::Totals& earlier,
                         const StoreStats::Totals& later);

class TimingPageStore : public storage::PageStore {
 public:
  // Neither pointer is owned; both must outlive the decorator.
  TimingPageStore(storage::PageStore* base, StoreStats* stats)
      : base_(base), stats_(stats) {}

  int num_disks() const override { return base_->num_disks(); }
  common::Result<uint64_t> SizeOf(int disk) const override {
    return base_->SizeOf(disk);
  }
  common::Status ReadAt(int disk, uint64_t offset, void* buf,
                        size_t len) const override;
  common::Status ReadPages(
      std::span<const storage::ReadRequest> requests) const override;
  common::Status WriteAt(int disk, uint64_t offset, const void* buf,
                         size_t len) override;
  common::Status Truncate(int disk) override { return base_->Truncate(disk); }
  common::Status Sync() override;

 private:
  storage::PageStore* base_;
  StoreStats* stats_;
};

class TimingGenerationEnv : public storage::GenerationEnv {
 public:
  // Neither pointer is owned; both must outlive the env and every store
  // it hands out.
  TimingGenerationEnv(storage::GenerationEnv* base, StoreStats* stats)
      : base_(base), stats_(stats) {}

  common::Result<uint64_t> ReadCurrent() override {
    return base_->ReadCurrent();
  }
  common::Status PublishCurrent(uint64_t gen) override {
    return base_->PublishCurrent(gen);
  }
  common::Result<std::vector<uint64_t>> ListGenerations() override {
    return base_->ListGenerations();
  }
  common::Result<storage::GenerationStores> OpenGeneration(
      uint64_t gen) override {
    return Wrap(base_->OpenGeneration(gen));
  }
  common::Result<storage::GenerationStores> CreateGeneration(
      uint64_t gen, int data_disks) override {
    return Wrap(base_->CreateGeneration(gen, data_disks));
  }
  common::Status RemoveGeneration(uint64_t gen) override {
    return base_->RemoveGeneration(gen);
  }

 private:
  common::Result<storage::GenerationStores> Wrap(
      common::Result<storage::GenerationStores> opened);

  storage::GenerationEnv* base_;
  StoreStats* stats_;
};

}  // namespace perfbench

#endif  // SQP_PERFBENCH_TIMING_STORE_H_
