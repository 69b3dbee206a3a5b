// Crash-recovery tests of the durable write path (storage::MutableIndex):
// mutations surviving reopen, crash-atomic checkpoint generation flips,
// commit-failure poisoning, the metrics conservation identity, the
// cross-process lock file, the background compaction policy — and the
// headline deterministic kill-point sweep, which crashes a scripted
// mutation workload at EVERY write-operation boundary (copy-on-write page
// writes, mirror writes, data syncs, WAL appends, WAL syncs — and, since
// the script checkpoints mid-way, every write of the fold itself:
// generation writes, generation syncs, the CURRENT pointer flip) and
// asserts that recovery lands on exactly a scripted state, never a
// hybrid, with orphan generations collected.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/point.h"
#include "obs/metrics.h"
#include "parallel/parallel_tree.h"
#include "storage/fault_injection.h"
#include "storage/generation.h"
#include "storage/index_io.h"
#include "storage/lock_file.h"
#include "storage/mutable_index.h"
#include "storage/page_store.h"
#include "storage/wal.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using geometry::Point;
using storage::FaultInjectingPageStore;
using storage::MemGenerationEnv;
using storage::MemPageStore;
using storage::MutableIndex;
using storage::PageStoreSlice;

// Generation slots the shared base store provides; a run uses at most
// three (boot + mid-script fold + post-recovery fold).
constexpr int kMaxGens = 8;

// One scripted mutation. Fresh-id inserts and known-live deletes only, so
// every op commits exactly one WAL record.
struct Op {
  bool insert = true;
  Point p;
  rstar::ObjectId id = 0;
};

// The live set as (id, point) pairs in id order — the ground truth a
// recovered index is compared against. Object ids are unique here, so a
// sorted vector is a faithful set representation.
using LiveSet = std::vector<std::pair<rstar::ObjectId, Point>>;

LiveSet LiveObjects(const rstar::RStarTree& tree) {
  LiveSet out;
  for (rstar::PageId id : tree.LiveNodeIds()) {
    const rstar::Node& node = tree.node(id);
    if (node.level != 0) continue;
    for (const rstar::Entry& e : node.entries) {
      out.emplace_back(e.object, e.mbr.lo());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

LiveSet ApplyOp(LiveSet state, const Op& op) {
  if (op.insert) {
    state.emplace_back(op.id, op.p);
    std::sort(state.begin(), state.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  } else {
    state.erase(std::remove_if(state.begin(), state.end(),
                               [&](const auto& e) { return e.first == op.id; }),
                state.end());
  }
  return state;
}

// Deterministic fixture shared by every recovery test: a small mirrored
// 3-disk index plus a 10-op script (5 fresh inserts, 5 deletes of base
// points) whose per-state live sets are precomputed.
struct Fixture {
  std::unique_ptr<parallel::ParallelRStarTree> index;
  std::vector<Op> ops;
  std::vector<LiveSet> states;  // states[j] = live set after j ops
  int disks = 3;
};

Fixture MakeFixture(uint64_t seed, bool mirrored) {
  Fixture f;
  const workload::Dataset data = workload::MakeClustered(80, 2, 6, 0.1, seed);
  rstar::TreeConfig tree_config;
  tree_config.dim = 2;
  tree_config.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = f.disks;
  dc.policy = parallel::DeclusterPolicy::kProximityIndex;
  dc.mirrored = mirrored;
  dc.seed = seed;
  f.index = workload::BuildParallelIndex(data, tree_config, dc);

  common::Rng rng(seed * 7 + 1);
  for (int i = 0; i < 5; ++i) {
    Op ins;
    ins.insert = true;
    ins.p = Point{static_cast<geometry::Coord>(rng.Uniform()),
                  static_cast<geometry::Coord>(rng.Uniform())};
    ins.id = static_cast<rstar::ObjectId>(5000 + i);
    f.ops.push_back(ins);
    Op del;
    del.insert = false;
    // Deleting an already-deleted object would be a NotFound no-op, which
    // commits no record and would skew the op<->record accounting — walk
    // forward from the draw until the target is distinct.
    auto idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(data.size()) - 1));
    auto taken = [&](size_t candidate) {
      return std::any_of(f.ops.begin(), f.ops.end(), [&](const Op& o) {
        return !o.insert && o.id == static_cast<rstar::ObjectId>(candidate);
      });
    };
    while (taken(idx)) idx = (idx + 1) % data.size();
    del.p = data.points[idx];
    del.id = static_cast<rstar::ObjectId>(idx);
    f.ops.push_back(del);
  }

  f.states.push_back(LiveObjects(f.index->tree()));
  for (const Op& op : f.ops) {
    f.states.push_back(ApplyOp(f.states.back(), op));
  }
  return f;
}

common::Status Apply(MutableIndex* mi, const Op& op) {
  return op.insert ? mi->Insert(op.p, op.id) : mi->Delete(op.p, op.id);
}

// Base store sized for kMaxGens generations of f.disks data disks (plus
// the pointer log on disk 0), with generation 1 holding the fixture's
// saved image, published.
std::unique_ptr<MemPageStore> MakeGenerationBase(const Fixture& f) {
  auto base =
      std::make_unique<MemPageStore>(1 + kMaxGens * (f.disks + 1));
  MemGenerationEnv setup(base.get(), f.disks);
  EXPECT_TRUE(storage::InitializeGenerations(&setup, *f.index).ok());
  return base;
}

// --- Basic durability -----------------------------------------------------

TEST(RecoveryTest, MutationsSurviveReopen) {
  Fixture f = MakeFixture(11, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);

  {
    auto mi = MutableIndex::Open(&env);
    ASSERT_TRUE(mi.ok()) << mi.status();
    EXPECT_EQ((*mi)->recovery_stats().wal_records, 0u);
    EXPECT_EQ((*mi)->recovery_stats().generation, 1u);
    for (const Op& op : f.ops) {
      ASSERT_TRUE(Apply(mi->get(), op).ok());
    }
    EXPECT_EQ((*mi)->mutation_stats().commits, f.ops.size());
    EXPECT_GT((*mi)->mutation_stats().wal_bytes, 0u);
    EXPECT_EQ(LiveObjects((*mi)->index().tree()), f.states.back());
  }  // "crash": the in-memory index is simply dropped

  auto reopened = MutableIndex::Open(&env);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const storage::RecoveryStats& rs = (*reopened)->recovery_stats();
  EXPECT_EQ(rs.replayed, f.ops.size());
  EXPECT_EQ(rs.torn_tail_dropped, 0u);
  EXPECT_EQ(rs.wal_records, rs.replayed + rs.torn_tail_dropped);
  EXPECT_EQ(rs.generation, 1u);
  EXPECT_EQ(LiveObjects((*reopened)->index().tree()), f.states.back());
  EXPECT_EQ((*reopened)->index().tree().size(), f.states.back().size());
}

TEST(RecoveryTest, NotFoundDeleteLeavesNoRecord) {
  Fixture f = MakeFixture(12, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());

  const common::Status s =
      (*mi)->Delete(Point{0.5f, 0.5f}, /*id=*/999999);
  EXPECT_EQ(s.code(), common::StatusCode::kNotFound);
  EXPECT_EQ((*mi)->mutation_stats().commits, 0u);
  auto scan = storage::ScanWal(*base, env.wal_disk_of(1));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  // The index remains fully usable.
  ASSERT_TRUE(Apply(mi->get(), f.ops[0]).ok());
  EXPECT_EQ((*mi)->mutation_stats().commits, 1u);
}

TEST(RecoveryTest, CheckpointFlipsToFreshGeneration) {
  Fixture f = MakeFixture(13, /*mirrored=*/true);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());
  for (const Op& op : f.ops) ASSERT_TRUE(Apply(mi->get(), op).ok());
  const uint64_t wal_bytes_before = (*mi)->mutation_stats().wal_bytes;
  ASSERT_GT(wal_bytes_before, 0u);

  ASSERT_TRUE((*mi)->Checkpoint().ok());
  const storage::MutationStats ms = (*mi)->mutation_stats();
  EXPECT_EQ(ms.checkpoints, 1u);
  EXPECT_EQ(ms.generation, 2u);
  EXPECT_EQ(ms.wal_bytes, 0u);
  EXPECT_EQ(ms.wal_bytes_reclaimed, wal_bytes_before);
  // The flip is visible in the env: CURRENT names generation 2, the new
  // generation's log is empty, and the old generation's bytes are gone.
  auto current = env.ReadCurrent();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 2u);
  auto scan = storage::ScanWal(*base, env.wal_disk_of(2));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());  // folded into the new base image
  auto listed = env.ListGenerations();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, std::vector<uint64_t>{2});

  // Post-checkpoint mutations land in the new generation's log, and a
  // reopen replays exactly those.
  Op extra;
  extra.insert = true;
  extra.p = Point{0.25f, 0.75f};
  extra.id = 7777;
  ASSERT_TRUE(Apply(mi->get(), extra).ok());
  mi->reset();

  auto reopened = MutableIndex::Open(&env);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_stats().replayed, 1u);
  EXPECT_EQ((*reopened)->recovery_stats().generation, 2u);
  EXPECT_EQ(LiveObjects((*reopened)->index().tree()),
            ApplyOp(f.states.back(), extra));
}

TEST(RecoveryTest, CommitFailurePoisonsUntilReopen) {
  Fixture f = MakeFixture(14, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  FaultInjectingPageStore faulty(base.get(), /*seed=*/99);
  MemGenerationEnv env(&faulty, f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());

  ASSERT_TRUE(Apply(mi->get(), f.ops[0]).ok());
  // Die mid-commit of op 2: allow one more write op, fail from there.
  faulty.ArmPowerCut(/*allow_ops=*/1, /*tear_first=*/false);
  EXPECT_FALSE(Apply(mi->get(), f.ops[1]).ok());
  // Poisoned: every later mutation refuses without touching the store.
  const common::Status refused = Apply(mi->get(), f.ops[2]);
  EXPECT_EQ(refused.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*mi)->mutation_stats().commits, 1u);
  EXPECT_TRUE((*mi)->failed());

  // The on-disk state recovers to the last durable commit (op 1).
  faulty.DisarmPowerCut();
  MemGenerationEnv renv(base.get(), f.disks);
  auto reopened = MutableIndex::Open(&renv);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_stats().replayed, 1u);
  EXPECT_EQ(LiveObjects((*reopened)->index().tree()), f.states[1]);
}

TEST(RecoveryTest, CheckpointFailurePreservesOldGeneration) {
  Fixture f = MakeFixture(16, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  FaultInjectingPageStore faulty(base.get(), /*seed=*/44);
  MemGenerationEnv env(&faulty, f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());
  ASSERT_TRUE(Apply(mi->get(), f.ops[0]).ok());
  ASSERT_TRUE(Apply(mi->get(), f.ops[1]).ok());

  // Cut two write ops into the fold — deep inside the new generation's
  // SaveIndex, well before the pointer flip.
  faulty.ArmPowerCut(/*allow_ops=*/2, /*tear_first=*/false);
  const common::Status s = (*mi)->Checkpoint();
  EXPECT_FALSE(s.ok());
  // Write-aside means the current generation was never touched: the index
  // is NOT poisoned and keeps serving + mutating once the media heals.
  EXPECT_FALSE((*mi)->failed());
  EXPECT_EQ((*mi)->mutation_stats().generation, 1u);
  EXPECT_EQ((*mi)->mutation_stats().checkpoints, 0u);
  auto current = env.ReadCurrent();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1u);

  faulty.DisarmPowerCut();
  ASSERT_TRUE(Apply(mi->get(), f.ops[2]).ok());
  // A later fold succeeds, truncating the crashed attempt's remnants.
  ASSERT_TRUE((*mi)->Checkpoint().ok());
  EXPECT_EQ((*mi)->mutation_stats().generation, 2u);
  EXPECT_EQ(LiveObjects((*mi)->index().tree()), f.states[3]);
}

TEST(RecoveryTest, ConservationIdentityHoldsInScrape) {
  Fixture f = MakeFixture(15, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);
  {
    auto mi = MutableIndex::Open(&env);
    ASSERT_TRUE(mi.ok());
    obs::MetricsRegistry registry;
    (*mi)->EnableMetrics(&registry);
    for (size_t i = 0; i < 4; ++i) ASSERT_TRUE(Apply(mi->get(), f.ops[i]).ok());
    // Live commits count as applied.
    const obs::MetricsSnapshot scrape = registry.Snapshot();
    EXPECT_EQ(scrape.CounterValue("sqp_wal_records_total"), 4u);
    EXPECT_EQ(scrape.CounterValue("sqp_wal_records_total"),
              scrape.CounterValue("sqp_wal_applied_total") +
                  scrape.CounterValue("sqp_wal_replayed_total") +
                  scrape.CounterValue("sqp_wal_torn_tail_dropped_total"));
    EXPECT_GT(scrape.CounterValue("sqp_cow_pages_total"), 0u);
  }
  // Simulate a crashed append: garbage bytes past the valid tail of the
  // live generation's log.
  const int wal_disk = env.wal_disk_of(1);
  auto scan = storage::ScanWal(*base, wal_disk);
  ASSERT_TRUE(scan.ok());
  const uint8_t junk[7] = {0x51, 0x51, 0x51, 0x51, 1, 2, 3};
  ASSERT_TRUE(
      base->WriteAt(wal_disk, scan->valid_end_offset, junk, sizeof(junk))
          .ok());

  auto reopened = MutableIndex::Open(&env);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  obs::MetricsRegistry registry;
  (*reopened)->EnableMetrics(&registry);
  // Replay-seeded identity: 4 replayed + 1 torn, 0 applied.
  obs::MetricsSnapshot scrape = registry.Snapshot();
  EXPECT_EQ(scrape.CounterValue("sqp_wal_records_total"), 5u);
  EXPECT_EQ(scrape.CounterValue("sqp_wal_replayed_total"), 4u);
  EXPECT_EQ(scrape.CounterValue("sqp_wal_torn_tail_dropped_total"), 1u);
  EXPECT_EQ(scrape.CounterValue("sqp_wal_applied_total"), 0u);
  EXPECT_EQ(scrape.CounterValue("sqp_wal_records_total"),
            scrape.CounterValue("sqp_wal_applied_total") +
                scrape.CounterValue("sqp_wal_replayed_total") +
                scrape.CounterValue("sqp_wal_torn_tail_dropped_total"));
  // And the identity keeps holding once live commits mix in.
  ASSERT_TRUE(Apply(reopened->get(), f.ops[4]).ok());
  scrape = registry.Snapshot();
  EXPECT_EQ(scrape.CounterValue("sqp_wal_records_total"),
            scrape.CounterValue("sqp_wal_applied_total") +
                scrape.CounterValue("sqp_wal_replayed_total") +
                scrape.CounterValue("sqp_wal_torn_tail_dropped_total"));
}

// --- The kill-point sweep (headline) --------------------------------------

// The sweep's action script: 5 ops, a checkpoint, 5 more ops — so the
// power-cut clock runs through the fold's own writes (new-generation
// pages, syncs, the CURRENT flip) as well as ordinary commits.
constexpr size_t kCheckpointAction = 5;
constexpr size_t kNumActions = 11;

common::Status DoAction(MutableIndex* mi, const Fixture& f, size_t action) {
  if (action == kCheckpointAction) return mi->Checkpoint();
  return Apply(mi, f.ops[action < kCheckpointAction ? action : action - 1]);
}

// Crashes the scripted workload at write-operation boundary `kill_at` (the
// first `kill_at` write ops succeed; the next is dropped — or torn to a
// random prefix — and everything after fails), then recovers from the
// surviving bytes and checks the recovered index is EXACTLY one of the
// scripted states, never a hybrid. A crash inside the fold must land on
// exactly the pre-checkpoint index (old generation, log intact) or the
// post-checkpoint one (new generation, log empty), decided solely by
// whether the CURRENT flip survived.
void RunKillPoint(const Fixture& f, uint64_t kill_at, bool tear,
                  uint64_t* write_ops_out = nullptr) {
  SCOPED_TRACE("kill_at=" + std::to_string(kill_at) +
               (tear ? " tear" : " drop"));
  auto base = MakeGenerationBase(f);
  // ONE fault decorator over the whole base array: every generation's
  // image and log AND the pointer flip share the same global write-op
  // clock, so the sweep covers the entire fold.
  FaultInjectingPageStore faulty(base.get(), /*seed=*/kill_at * 2 + tear);
  MemGenerationEnv env(&faulty, f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok()) << mi.status();
  if (write_ops_out == nullptr) {
    faulty.ArmPowerCut(kill_at, tear);
  }

  size_t ok_ops = 0;
  bool crashed = false;
  size_t crashed_action = kNumActions;
  for (size_t a = 0; a < kNumActions; ++a) {
    if (DoAction(mi->get(), f, a).ok()) {
      if (a != kCheckpointAction) ++ok_ops;
    } else {
      crashed = true;
      crashed_action = a;
      break;
    }
  }
  if (write_ops_out != nullptr) {
    ASSERT_FALSE(crashed);
    *write_ops_out = faulty.write_ops();
    return;
  }
  ASSERT_TRUE(crashed);  // kill_at < clean-run write ops, so the cut fires
  mi->reset();           // the faulty in-memory view dies with the machine

  // Recovery runs against the surviving bytes through a pristine env.
  // MutableIndex::Open re-reads and checksum-verifies every live node, so
  // it succeeding IS the integrity half of the assertion.
  MemGenerationEnv renv(base.get(), f.disks);
  auto recovered = MutableIndex::Open(&renv);
  ASSERT_TRUE(recovered.ok()) << recovered.status();

  const storage::RecoveryStats& rs = (*recovered)->recovery_stats();
  EXPECT_EQ(rs.wal_records, rs.replayed + rs.torn_tail_dropped);
  ASSERT_TRUE(rs.generation == 1 || rs.generation == 2)
      << "generation " << rs.generation;
  // Generation 2 exists only past the fold, which folded exactly the 5
  // pre-checkpoint ops into its base image.
  const size_t base_ops =
      rs.generation == 2 ? kCheckpointAction : 0;
  const size_t applied = base_ops + rs.replayed;
  // Atomicity: the crashed op either committed durably before the machine
  // died (its WAL sync failed but the record bytes had landed) or left no
  // accepted record at all. Nothing in between.
  ASSERT_GE(applied, ok_ops);
  ASSERT_LE(applied, ok_ops + 1);
  if (crashed_action == kCheckpointAction) {
    // Crash inside the fold: all-or-nothing on the flip.
    EXPECT_EQ(applied, kCheckpointAction);
    if (rs.generation == 1) {
      EXPECT_EQ(rs.replayed, kCheckpointAction);  // old log intact
    } else {
      EXPECT_EQ(rs.replayed, 0u);  // folded; the new log starts empty
    }
  }
  ASSERT_LT(applied, f.states.size());
  const LiveSet& want = f.states[applied];
  EXPECT_EQ(LiveObjects((*recovered)->index().tree()), want);
  EXPECT_EQ((*recovered)->index().tree().size(), want.size());

  // Open garbage-collected every generation a crashed fold left behind:
  // exactly the recovered generation holds bytes now.
  auto listed = renv.ListGenerations();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, std::vector<uint64_t>{rs.generation});

  // The recovered index must be fully usable going forward: finish the
  // script, land on the final state, and fold once more cleanly.
  for (size_t i = applied; i < f.ops.size(); ++i) {
    ASSERT_TRUE(Apply(recovered->get(), f.ops[i]).ok());
  }
  EXPECT_EQ(LiveObjects((*recovered)->index().tree()), f.states.back());
  ASSERT_TRUE((*recovered)->Checkpoint().ok());
  EXPECT_EQ(LiveObjects((*recovered)->index().tree()), f.states.back());
}

TEST(RecoveryKillPointTest, EveryWriteBoundaryRecoversConsistently) {
  const Fixture f = MakeFixture(21, /*mirrored=*/true);
  // Clean run: measure the workload's write-operation space (which now
  // spans the mid-script fold).
  uint64_t total_write_ops = 0;
  RunKillPoint(f, 0, /*tear=*/false, &total_write_ops);
  ASSERT_GT(total_write_ops, 20u);  // sanity: the sweep is non-trivial

  for (uint64_t k = 0; k < total_write_ops; ++k) {
    RunKillPoint(f, k, /*tear=*/false);
    if (HasFatalFailure()) return;
    RunKillPoint(f, k, /*tear=*/true);
    if (HasFatalFailure()) return;
  }
}

TEST(RecoveryKillPointTest, UnmirroredSweepSparse) {
  // A second, unmirrored fixture swept at every third boundary (the dense
  // sweep above already covers every boundary once).
  const Fixture f = MakeFixture(22, /*mirrored=*/false);
  uint64_t total_write_ops = 0;
  RunKillPoint(f, 0, /*tear=*/false, &total_write_ops);
  for (uint64_t k = 0; k < total_write_ops; k += 3) {
    RunKillPoint(f, k, /*tear=*/(k % 2 == 1));
    if (HasFatalFailure()) return;
  }
}

// --- Cross-process lock file ----------------------------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// A small file-backed index directory for OpenFromDir-based lock tests.
std::string MakeIndexDir(const std::string& name, uint64_t seed) {
  const std::string dir = FreshDir(name);
  const workload::Dataset data = workload::MakeClustered(60, 2, 4, 0.1, seed);
  rstar::TreeConfig tree_config;
  tree_config.dim = 2;
  tree_config.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = 3;
  dc.policy = parallel::DeclusterPolicy::kProximityIndex;
  dc.mirrored = false;
  dc.seed = seed;
  auto built = workload::BuildAndSaveParallelIndex(data, tree_config, dc, dir);
  EXPECT_TRUE(built.ok()) << built.status();
  return dir;
}

TEST(LockFileTest, SecondInProcessOpenFailsTyped) {
  const std::string dir = MakeIndexDir("sqp_lock_inproc", 31);
  auto first = MutableIndex::OpenFromDir(dir);
  ASSERT_TRUE(first.ok()) << first.status();
  // Our own pid is alive, so the lock is emphatically not stale.
  auto second = MutableIndex::OpenFromDir(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), common::StatusCode::kFailedPrecondition);
  // Releasing the first opener releases the directory.
  first->reset();
  auto third = MutableIndex::OpenFromDir(dir);
  EXPECT_TRUE(third.ok()) << third.status();
  third->reset();
  std::filesystem::remove_all(dir);
}

TEST(LockFileTest, ForkedSecondProcessFailsTyped) {
  const std::string dir = MakeIndexDir("sqp_lock_fork", 32);
  auto first = MutableIndex::OpenFromDir(dir);
  ASSERT_TRUE(first.ok()) << first.status();

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: a genuinely separate process contending for the lock.
    auto second = MutableIndex::OpenFromDir(dir);
    if (!second.ok() &&
        second.status().code() == common::StatusCode::kFailedPrecondition) {
      _exit(42);
    }
    _exit(1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42);
  first->reset();
  std::filesystem::remove_all(dir);
}

TEST(LockFileTest, StaleLockFromDeadProcessIsBroken) {
  const std::string dir = MakeIndexDir("sqp_lock_stale", 33);
  // Manufacture a certainly-dead pid: fork a child that exits immediately
  // and reap it; its pid cannot be reused while this test still runs.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  std::string boot_id;
  {
    std::ifstream in("/proc/sys/kernel/random/boot_id");
    std::getline(in, boot_id);
  }
  {
    std::ofstream lock(dir + "/LOCK");
    lock << child << (boot_id.empty() ? "" : " " + boot_id) << "\n";
  }
  auto acquired = storage::LockFile::Acquire(dir + "/LOCK");
  ASSERT_TRUE(acquired.ok()) << acquired.status();
  EXPECT_TRUE((*acquired)->broke_stale());
  acquired->reset();

  // And through the full OpenFromDir path too.
  {
    std::ofstream lock(dir + "/LOCK");
    lock << child << (boot_id.empty() ? "" : " " + boot_id) << "\n";
  }
  auto mi = MutableIndex::OpenFromDir(dir);
  EXPECT_TRUE(mi.ok()) << mi.status();
  mi->reset();
  std::filesystem::remove_all(dir);
}

TEST(LockFileTest, BootIdMismatchIsStale) {
  const std::string dir = FreshDir("sqp_lock_bootid");
  std::filesystem::create_directories(dir);
  {
    // Pid 1 is certainly alive, but the boot id says the lock predates
    // this boot — every pid of that era is gone.
    std::ofstream lock(dir + "/LOCK");
    lock << "1 00000000-dead-beef-0000-000000000000\n";
  }
  auto acquired = storage::LockFile::Acquire(dir + "/LOCK");
  ASSERT_TRUE(acquired.ok()) << acquired.status();
  EXPECT_TRUE((*acquired)->broke_stale());
  acquired->reset();
  std::filesystem::remove_all(dir);
}

TEST(LockFileTest, ReleasedOnDestruction) {
  const std::string dir = FreshDir("sqp_lock_release");
  std::filesystem::create_directories(dir);
  {
    auto lock = storage::LockFile::Acquire(dir + "/LOCK");
    ASSERT_TRUE(lock.ok());
    EXPECT_FALSE((*lock)->broke_stale());
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/LOCK"));
  auto again = storage::LockFile::Acquire(dir + "/LOCK");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)->broke_stale());
  again->reset();
  std::filesystem::remove_all(dir);
}

// --- Background compaction policy -----------------------------------------

TEST(CompactionPolicyTest, RecordThresholdTriggersBackgroundFold) {
  Fixture f = MakeFixture(41, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());

  storage::CompactionPolicy policy;
  policy.max_wal_records = 3;
  (*mi)->StartCompaction(policy);
  for (const Op& op : f.ops) ASSERT_TRUE(Apply(mi->get(), op).ok());

  // The fold is asynchronous; wait for the policy to catch up with the
  // burst, then quiesce.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*mi)->mutation_stats().auto_checkpoints == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (*mi)->StopCompaction();

  const storage::MutationStats ms = (*mi)->mutation_stats();
  EXPECT_GE(ms.auto_checkpoints, 1u);
  EXPECT_EQ(ms.checkpoints, ms.auto_checkpoints);
  EXPECT_GT(ms.generation, 1u);
  EXPECT_GT(ms.wal_bytes_reclaimed, 0u);
  EXPECT_EQ(LiveObjects((*mi)->index().tree()), f.states.back());

  // Everything survives a cold reopen of whatever generation won.
  mi->reset();
  auto reopened = MutableIndex::Open(&env);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(LiveObjects((*reopened)->index().tree()), f.states.back());
}

TEST(CompactionPolicyTest, MinIntervalSuppressesRepeatedFolds) {
  Fixture f = MakeFixture(42, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());

  storage::CompactionPolicy policy;
  policy.max_wal_records = 1;
  policy.min_interval_s = 3600;  // the first fold is free; the rest wait
  (*mi)->StartCompaction(policy);
  for (size_t i = 0; i < 5; ++i) ASSERT_TRUE(Apply(mi->get(), f.ops[i]).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*mi)->mutation_stats().auto_checkpoints == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE((*mi)->mutation_stats().auto_checkpoints, 1u);

  // More commits over the threshold — but within min_interval, so the
  // policy must sit on its hands.
  for (size_t i = 5; i < f.ops.size(); ++i) {
    ASSERT_TRUE(Apply(mi->get(), f.ops[i]).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  (*mi)->StopCompaction();
  EXPECT_EQ((*mi)->mutation_stats().auto_checkpoints, 1u);
  EXPECT_EQ(LiveObjects((*mi)->index().tree()), f.states.back());
}

// An index that has never checkpointed folds as soon as the policy says
// so, whatever min_interval is. 1e9 s outlasts any host's uptime, so this
// fails if "never checkpointed" is read off the clock's (boot-time) epoch.
TEST(CompactionPolicyTest, FirstFoldIgnoresMinIntervalOnAnyUptime) {
  Fixture f = MakeFixture(44, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());

  storage::CompactionPolicy policy;
  policy.max_wal_records = 1;
  policy.min_interval_s = 1e9;
  (*mi)->StartCompaction(policy);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(Apply(mi->get(), f.ops[i]).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*mi)->mutation_stats().auto_checkpoints == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (*mi)->StopCompaction();
  EXPECT_EQ((*mi)->mutation_stats().auto_checkpoints, 1u);
}

TEST(CompactionPolicyTest, DisabledPolicyStopsAndStopIsIdempotent) {
  Fixture f = MakeFixture(43, /*mirrored=*/false);
  auto base = MakeGenerationBase(f);
  MemGenerationEnv env(base.get(), f.disks);
  auto mi = MutableIndex::Open(&env);
  ASSERT_TRUE(mi.ok());

  (*mi)->StopCompaction();  // never started: no-op
  storage::CompactionPolicy policy;
  policy.max_wal_bytes = 1;  // triggers on any commit
  (*mi)->StartCompaction(policy);
  (*mi)->StartCompaction(storage::CompactionPolicy{});  // all-zero: stops
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(Apply(mi->get(), f.ops[i]).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ((*mi)->mutation_stats().auto_checkpoints, 0u);
  (*mi)->StopCompaction();
  (*mi)->StopCompaction();
  // Destruction with a (re)started thread is clean, too.
  (*mi)->StartCompaction(policy);
}

}  // namespace
}  // namespace sqp
