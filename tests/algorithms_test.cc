// Cross-algorithm correctness: BBSS, FPSS, CRSS and WOPTSS must all return
// exactly the brute-force k-NN distances, on every dataset shape,
// dimensionality and k. Also verifies the paper's structural claims about
// page accesses (WOPTSS lower bound, BBSS single-page batches, FPSS
// maximal batches).

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/bbss.h"
#include "core/crss.h"
#include "core/exact_knn.h"
#include "core/fpss.h"
#include "core/sequential_executor.h"
#include "core/woptss.h"
#include "rstar/rstar_tree.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace sqp::core {
namespace {

using geometry::Point;
using rstar::RStarTree;
using rstar::TreeConfig;
using workload::Dataset;

constexpr int kNumDisks = 10;

TreeConfig SmallConfig(int dim, int max_entries = 10) {
  TreeConfig cfg;
  cfg.dim = dim;
  cfg.max_entries_override = max_entries;
  return cfg;
}

// Compares an algorithm's result against brute force. Distances must match
// exactly (all algorithms use the same double-precision kernels); object
// ids must match except within tied distances.
void ExpectMatchesBruteForce(const KnnResultSet& got, const Dataset& data,
                             const Point& q, size_t k) {
  const auto want = workload::BruteForceKnn(data, q, k);
  const auto sorted = got.Sorted();
  ASSERT_EQ(sorted.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_DOUBLE_EQ(sorted[i].dist_sq, want[i].second) << "rank " << i;
    ASSERT_EQ(sorted[i].object, want[i].first) << "rank " << i;
  }
}

struct AlgoCase {
  AlgorithmKind kind;
  // GoogleTest prints a parameter that has no operator<< as its raw bytes,
  // and those bytes become part of each test's name. Spelling out the four
  // bytes that would otherwise be uninitialised padding keeps the names the
  // same from run to run.
  int32_t zero = 0;
  const char* name;
};

class AllAlgorithmsTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(AllAlgorithmsTest, MatchesBruteForceUniform2d) {
  const Dataset data = workload::MakeUniform(1000, 2, 21);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  const auto queries =
      workload::MakeQueryPoints(data, 25, workload::QueryDistribution::kUniform, 3);
  for (size_t k : {1u, 2u, 5u, 10u, 50u}) {
    for (const Point& q : queries) {
      auto algo = MakeAlgorithm(GetParam().kind, tree, q, k, kNumDisks);
      RunToCompletion(tree, algo.get());
      ExpectMatchesBruteForce(algo->result(), data, q, k);
    }
  }
}

TEST_P(AllAlgorithmsTest, MatchesBruteForceClustered2d) {
  const Dataset data = workload::MakeClustered(1200, 2, 10, 0.05, 22);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  const auto queries = workload::MakeQueryPoints(
      data, 25, workload::QueryDistribution::kDataDistributed, 4);
  for (size_t k : {1u, 7u, 20u}) {
    for (const Point& q : queries) {
      auto algo = MakeAlgorithm(GetParam().kind, tree, q, k, kNumDisks);
      RunToCompletion(tree, algo.get());
      ExpectMatchesBruteForce(algo->result(), data, q, k);
    }
  }
}

TEST_P(AllAlgorithmsTest, MatchesBruteForceHighDim) {
  for (int dim : {5, 10}) {
    const Dataset data = workload::MakeGaussian(600, dim, 30 + dim);
    RStarTree tree(SmallConfig(dim, 12));
    workload::InsertAll(data, &tree);
    const auto queries = workload::MakeQueryPoints(
        data, 10, workload::QueryDistribution::kDataDistributed, 5);
    for (size_t k : {1u, 10u, 40u}) {
      for (const Point& q : queries) {
        auto algo = MakeAlgorithm(GetParam().kind, tree, q, k, kNumDisks);
        RunToCompletion(tree, algo.get());
        ExpectMatchesBruteForce(algo->result(), data, q, k);
      }
    }
  }
}

TEST_P(AllAlgorithmsTest, KLargerThanDataset) {
  const Dataset data = workload::MakeUniform(50, 2, 40);
  RStarTree tree(SmallConfig(2, 6));
  workload::InsertAll(data, &tree);
  const Point q{0.3, 0.7};
  auto algo = MakeAlgorithm(GetParam().kind, tree, q, 200, kNumDisks);
  RunToCompletion(tree, algo.get());
  // All 50 objects reported.
  EXPECT_EQ(algo->result().size(), 50u);
  ExpectMatchesBruteForce(algo->result(), data, q, 200);
}

TEST_P(AllAlgorithmsTest, KEqualsDataset) {
  const Dataset data = workload::MakeUniform(64, 2, 41);
  RStarTree tree(SmallConfig(2, 6));
  workload::InsertAll(data, &tree);
  const Point q{0.5, 0.5};
  auto algo = MakeAlgorithm(GetParam().kind, tree, q, 64, kNumDisks);
  RunToCompletion(tree, algo.get());
  ExpectMatchesBruteForce(algo->result(), data, q, 64);
}

TEST_P(AllAlgorithmsTest, EmptyTree) {
  RStarTree tree(SmallConfig(2, 6));
  auto algo = MakeAlgorithm(GetParam().kind, tree, Point{0.5, 0.5}, 3,
                            kNumDisks);
  const ExecutionStats stats = RunToCompletion(tree, algo.get());
  EXPECT_EQ(algo->result().size(), 0u);
  EXPECT_EQ(stats.pages_fetched, 1u);  // just the (empty) root
}

TEST_P(AllAlgorithmsTest, SingleObjectTree) {
  RStarTree tree(SmallConfig(2, 6));
  tree.Insert(Point{0.25, 0.75}, 9);
  auto algo = MakeAlgorithm(GetParam().kind, tree, Point{0.9, 0.9}, 1,
                            kNumDisks);
  RunToCompletion(tree, algo.get());
  const auto sorted = algo->result().Sorted();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_EQ(sorted[0].object, 9u);
}

TEST_P(AllAlgorithmsTest, DuplicatePointsAllReported) {
  RStarTree tree(SmallConfig(2, 6));
  for (rstar::ObjectId i = 0; i < 30; ++i) {
    tree.Insert(Point{0.5, 0.5}, i);
  }
  tree.Insert(Point{0.9, 0.9}, 100);
  auto algo = MakeAlgorithm(GetParam().kind, tree, Point{0.5, 0.5}, 30,
                            kNumDisks);
  RunToCompletion(tree, algo.get());
  const auto sorted = algo->result().Sorted();
  ASSERT_EQ(sorted.size(), 30u);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(sorted[i].dist_sq, 0.0);
    EXPECT_EQ(sorted[i].object, i);  // tie-break by id
  }
}

TEST_P(AllAlgorithmsTest, QueryOutsideDataSpace) {
  const Dataset data = workload::MakeUniform(300, 2, 44);
  RStarTree tree(SmallConfig(2, 8));
  workload::InsertAll(data, &tree);
  const Point q{5.0, -3.0};  // far outside [0,1]^2
  auto algo = MakeAlgorithm(GetParam().kind, tree, q, 10, kNumDisks);
  RunToCompletion(tree, algo.get());
  ExpectMatchesBruteForce(algo->result(), data, q, 10);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AllAlgorithmsTest,
    ::testing::Values(AlgoCase{AlgorithmKind::kBbss, 0, "BBSS"},
                      AlgoCase{AlgorithmKind::kFpss, 0, "FPSS"},
                      AlgoCase{AlgorithmKind::kCrss, 0, "CRSS"},
                      AlgoCase{AlgorithmKind::kWoptss, 0, "WOPTSS"}),
    [](const ::testing::TestParamInfo<AlgoCase>& info) {
      return info.param.name;
    });

// --- Structural properties ---------------------------------------------

TEST(AlgorithmStructureTest, BbssFetchesOnePagePerStep) {
  const Dataset data = workload::MakeUniform(800, 2, 50);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  Bbss algo(tree, Point{0.4, 0.6}, 10);
  const ExecutionStats stats = RunToCompletion(tree, &algo);
  EXPECT_EQ(stats.max_batch, 1u);
  EXPECT_EQ(stats.steps, stats.pages_fetched);
}

TEST(AlgorithmStructureTest, CrssBatchesBoundedByDisks) {
  const Dataset data = workload::MakeClustered(2000, 2, 8, 0.1, 51);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  for (int disks : {1, 2, 5, 10}) {
    Crss algo(tree, Point{0.5, 0.5}, 20, CrssOptions{disks, true});
    const ExecutionStats stats = RunToCompletion(tree, &algo);
    // The lower-bound promotion may exceed u only while results are not
    // yet full; with max_entries 10 per node and k=20 a small overshoot is
    // possible, but batches must stay O(u + k/min_count).
    EXPECT_LE(stats.max_batch, static_cast<size_t>(disks) + 20u)
        << "disks " << disks;
  }
}

TEST(AlgorithmStructureTest, WoptssIsLowerBoundOnSphereFetches) {
  const Dataset data = workload::MakeClustered(1500, 2, 6, 0.1, 52);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  const auto queries = workload::MakeQueryPoints(
      data, 15, workload::QueryDistribution::kDataDistributed, 6);
  for (const Point& q : queries) {
    const size_t k = 10;
    size_t wopt_pages = 0;
    std::vector<size_t> other_pages;
    for (AlgorithmKind kind :
         {AlgorithmKind::kWoptss, AlgorithmKind::kBbss, AlgorithmKind::kFpss,
          AlgorithmKind::kCrss}) {
      auto algo = MakeAlgorithm(kind, tree, q, k, kNumDisks);
      const ExecutionStats stats = RunToCompletion(tree, algo.get());
      if (kind == AlgorithmKind::kWoptss) {
        wopt_pages = stats.pages_fetched;
      } else {
        other_pages.push_back(stats.pages_fetched);
      }
    }
    for (size_t pages : other_pages) {
      EXPECT_GE(pages, wopt_pages);
    }
  }
}

TEST(AlgorithmStructureTest, WoptssMatchesBestFirstAccessCount) {
  const Dataset data = workload::MakeGaussian(1000, 2, 53);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  const auto queries = workload::MakeQueryPoints(
      data, 10, workload::QueryDistribution::kDataDistributed, 7);
  for (const Point& q : queries) {
    Woptss algo(tree, q, 15);
    const ExecutionStats stats = RunToCompletion(tree, &algo);
    const ExactKnnOutput exact = ExactKnn(tree, q, 15);
    // Both fetch exactly the pages whose MBR intersects the Dk sphere.
    EXPECT_EQ(stats.pages_fetched, exact.pages_accessed);
  }
}

TEST(AlgorithmStructureTest, FpssFetchesAtLeastAsManyAsCrss) {
  const Dataset data = workload::MakeClustered(2500, 2, 10, 0.05, 54);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  const auto queries = workload::MakeQueryPoints(
      data, 20, workload::QueryDistribution::kDataDistributed, 8);
  size_t fpss_total = 0, crss_total = 0;
  for (const Point& q : queries) {
    Fpss fpss(tree, q, 10);
    fpss_total += RunToCompletion(tree, &fpss).pages_fetched;
    Crss crss(tree, q, 10, CrssOptions{kNumDisks, true});
    crss_total += RunToCompletion(tree, &crss).pages_fetched;
  }
  // CRSS's whole point: candidate reduction fetches no more than full
  // activation, in aggregate.
  EXPECT_LE(crss_total, fpss_total);
}

TEST(AlgorithmStructureTest, CpuInstructionsNonZero) {
  const Dataset data = workload::MakeUniform(500, 2, 55);
  RStarTree tree(SmallConfig(2));
  workload::InsertAll(data, &tree);
  for (AlgorithmKind kind : {AlgorithmKind::kBbss, AlgorithmKind::kFpss,
                             AlgorithmKind::kCrss, AlgorithmKind::kWoptss}) {
    auto algo = MakeAlgorithm(kind, tree, Point{0.2, 0.8}, 5, kNumDisks);
    const ExecutionStats stats = RunToCompletion(tree, algo.get());
    EXPECT_GT(stats.cpu_instructions, 0u) << AlgorithmName(kind);
  }
}

// Randomized differential sweep across dims / k / datasets.
struct SweepParam {
  int dim;
  int k;
};

class DifferentialSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DifferentialSweepTest, AllAlgorithmsAgreeWithBruteForce) {
  const auto [dim, k] = GetParam();
  const Dataset data =
      workload::MakeClustered(700, dim, 6, 0.1, 60 + dim * 7 + k);
  RStarTree tree(SmallConfig(dim, 9));
  workload::InsertAll(data, &tree);
  const auto queries = workload::MakeQueryPoints(
      data, 8, workload::QueryDistribution::kDataDistributed, 9);
  for (const Point& q : queries) {
    for (AlgorithmKind kind : {AlgorithmKind::kBbss, AlgorithmKind::kFpss,
                               AlgorithmKind::kCrss, AlgorithmKind::kWoptss}) {
      auto algo =
          MakeAlgorithm(kind, tree, q, static_cast<size_t>(k), kNumDisks);
      RunToCompletion(tree, algo.get());
      ExpectMatchesBruteForce(algo->result(), data, q,
                              static_cast<size_t>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndK, DifferentialSweepTest,
    ::testing::Values(SweepParam{1, 3}, SweepParam{2, 1}, SweepParam{2, 16},
                      SweepParam{3, 8}, SweepParam{4, 25}, SweepParam{5, 4},
                      SweepParam{6, 12}, SweepParam{8, 2},
                      SweepParam{10, 10}));

}  // namespace
}  // namespace sqp::core
