// Golden images of R*-trees built by insertion. Each case builds an index
// through the full insert path (ChooseSubtree, forced reinsert, split,
// supernodes, delete condensation), saves it with storage::SaveIndex into
// a MemPageStore and pins the FNV-1a hash and page count of the image. Any
// change to which entry lands in which node, to an MBR bit, or to the page
// order changes the hash, so an optimization of the insert path that is
// meant to be exact is held to byte identity.
//
// The data are integers scaled by 2^-10: exact in float, so no dataset
// arithmetic can round or be fused differently under other compiler flags,
// and they come from a self-contained integer generator rather than a
// standard-library distribution. Pages are placed round-robin, which
// involves no floating point either. (The declustering layer still draws
// each page's cylinder with std::uniform_int_distribution, so the pinned
// images assume libstdc++.)

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/point.h"
#include "parallel/parallel_tree.h"
#include "rstar/node.h"
#include "storage/index_io.h"
#include "storage/page_store.h"

namespace sqp::rstar {
namespace {

using geometry::Point;

constexpr int kGridSide = 1024;  // coordinates are k / kGridSide

// splitmix64: a portable integer stream.
class IntStream {
 public:
  explicit IntStream(uint64_t seed) : state_(seed) {}

  // Uniform-ish integer in [0, bound).
  int Next(int bound) {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<int>(z % static_cast<uint64_t>(bound));
  }

 private:
  uint64_t state_;
};

Point GridPoint(const std::vector<int>& cells) {
  std::vector<geometry::Coord> coords;
  for (int c : cells) {
    coords.push_back(static_cast<geometry::Coord>(c) /
                     static_cast<geometry::Coord>(kGridSide));
  }
  return Point::FromVector(std::move(coords));
}

int Clamp(int c) { return c < 0 ? 0 : (c >= kGridSide ? kGridSide - 1 : c); }

// `n` points around `clusters` centers, each coordinate within +-spread
// cells of its center. Small spreads put many points on shared lattice
// lines and repeat some points outright.
std::vector<Point> Clustered(size_t n, int dim, int clusters, int spread,
                             uint64_t seed) {
  IntStream rng(seed);
  std::vector<std::vector<int>> centers(static_cast<size_t>(clusters));
  for (auto& c : centers) {
    for (int k = 0; k < dim; ++k) c.push_back(rng.Next(kGridSide));
  }
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    const auto& c = centers[static_cast<size_t>(rng.Next(clusters))];
    std::vector<int> cells;
    for (int k = 0; k < dim; ++k) {
      cells.push_back(Clamp(c[static_cast<size_t>(k)] +
                            rng.Next(2 * spread + 1) - spread));
    }
    points.push_back(GridPoint(cells));
  }
  return points;
}

std::vector<Point> Uniform(size_t n, int dim, uint64_t seed) {
  IntStream rng(seed);
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<int> cells;
    for (int k = 0; k < dim; ++k) cells.push_back(rng.Next(kGridSide));
    points.push_back(GridPoint(cells));
  }
  return points;
}

// Concentrated high-dimensional data (each coordinate a sum of four
// draws), which makes directory MBRs overlap and X-tree nodes grow into
// supernodes.
std::vector<Point> Concentrated(size_t n, int dim, uint64_t seed) {
  IntStream rng(seed);
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<int> cells;
    for (int k = 0; k < dim; ++k) {
      int sum = 0;
      for (int r = 0; r < 4; ++r) sum += rng.Next(kGridSide / 4);
      cells.push_back(sum);
    }
    points.push_back(GridPoint(cells));
  }
  return points;
}

// The cases where area enlargement is 0 but the candidate does not
// contain the point: runs of collinear points (zero-area leaves whose
// line the next point extends), points on the faces of existing MBRs,
// and exact duplicates.
std::vector<Point> Degenerate(size_t n, uint64_t seed) {
  IntStream rng(seed);
  std::vector<Point> points;
  while (points.size() < n) {
    const int x = rng.Next(kGridSide / 64) * 64;
    const int y = rng.Next(kGridSide);
    switch (rng.Next(4)) {
      case 0:  // a vertical run on the line x
        for (int r = 0; r < 12; ++r) {
          points.push_back(GridPoint({x, Clamp(y + r)}));
        }
        break;
      case 1:  // a horizontal run at height x
        for (int r = 0; r < 12; ++r) {
          points.push_back(GridPoint({Clamp(y + r), x}));
        }
        break;
      case 2:  // a point on a shared face, then its duplicate
        points.push_back(GridPoint({x, y}));
        points.push_back(GridPoint({x, y}));
        break;
      default:  // a point repeated many times
        for (int r = 0; r < 6; ++r) points.push_back(GridPoint({y, y}));
        break;
    }
  }
  points.resize(n);
  return points;
}

TreeConfig Config(int dim, int page_size_bytes) {
  TreeConfig cfg;
  cfg.dim = dim;
  cfg.page_size_bytes = page_size_bytes;
  return cfg;
}

std::unique_ptr<parallel::ParallelRStarTree> NewIndex(const TreeConfig& cfg) {
  parallel::DeclusterConfig dc;
  dc.num_disks = 4;
  dc.policy = parallel::DeclusterPolicy::kRoundRobin;
  dc.seed = 7;
  return std::make_unique<parallel::ParallelRStarTree>(cfg, dc);
}

std::unique_ptr<parallel::ParallelRStarTree> Build(
    const TreeConfig& cfg, const std::vector<Point>& points) {
  auto index = NewIndex(cfg);
  for (size_t i = 0; i < points.size(); ++i) {
    index->tree().Insert(points[i], static_cast<ObjectId>(i));
  }
  return index;
}

struct Image {
  uint64_t fnv1a;
  uint64_t pages;
};

Image SaveAndHash(const parallel::ParallelRStarTree& index) {
  EXPECT_TRUE(index.tree().Validate().ok());
  storage::MemPageStore store(index.num_disks());
  EXPECT_TRUE(storage::SaveIndex(index, &store).ok());
  uint64_t hash = 0xcbf29ce484222325ULL;
  uint64_t bytes = 0;
  for (int d = 0; d < store.num_disks(); ++d) {
    for (uint8_t b : store.disk_bytes(d)) {
      hash = (hash ^ b) * 0x100000001b3ULL;
    }
    bytes += store.disk_bytes(d).size();
  }
  const auto page =
      static_cast<uint64_t>(index.tree().config().page_size_bytes);
  EXPECT_EQ(bytes % page, 0u);
  return {hash, bytes / page};
}

void ExpectImage(const parallel::ParallelRStarTree& index, uint64_t fnv1a,
                 uint64_t pages) {
  const Image got = SaveAndHash(index);
  EXPECT_EQ(got.fnv1a, fnv1a) << std::hex << "got 0x" << got.fnv1a;
  EXPECT_EQ(got.pages, pages);
}

TEST(RStarBuildIdentityTest, Clustered2dOneKbPages) {
  const auto index = Build(Config(2, 1024), Clustered(6000, 2, 12, 40, 1));
  ExpectImage(*index, 0x793f2a8c48fab67fULL, 274);
}

TEST(RStarBuildIdentityTest, Clustered2dFourKbPages) {
  const auto index = Build(Config(2, 4096), Clustered(8000, 2, 10, 60, 2));
  ExpectImage(*index, 0xc0f7cf91d75ff3cbULL, 90);
}

TEST(RStarBuildIdentityTest, Uniform8dFourKbPages) {
  const auto index = Build(Config(8, 4096), Uniform(4000, 8, 3));
  ExpectImage(*index, 0x5b3280c5926d1c18ULL, 123);
}

TEST(RStarBuildIdentityTest, ForcedReinsertOff) {
  TreeConfig cfg = Config(2, 1024);
  cfg.forced_reinsert = false;
  const auto index = Build(cfg, Clustered(6000, 2, 12, 40, 4));
  ExpectImage(*index, 0x7d328c3867e39183ULL, 268);
}

TEST(RStarBuildIdentityTest, XTreeGrowsSupernodes) {
  TreeConfig cfg = Config(8, 1024);
  cfg.allow_supernodes = true;
  const auto index = Build(cfg, Concentrated(6000, 8, 5));
  int supernodes = 0;
  for (PageId id : index->tree().LiveNodeIds()) {
    if (PageSpan(cfg, index->tree().node(id)) > 1) ++supernodes;
  }
  EXPECT_GT(supernodes, 0);
  ExpectImage(*index, 0x5faa5493c221155fULL, 802);
}

TEST(RStarBuildIdentityTest, InterleavedDeletes) {
  const std::vector<Point> points = Clustered(6000, 2, 12, 40, 6);
  auto index = NewIndex(Config(2, 1024));
  for (size_t i = 0; i < points.size(); ++i) {
    index->tree().Insert(points[i], static_cast<ObjectId>(i));
    // After every third insert, delete the point inserted 1000 earlier
    // (every other time), so condensation reinserts orphans mid-build.
    if (i % 3 == 2 && i >= 1000 && (i / 3) % 2 == 0) {
      const size_t victim = i - 1000;
      ASSERT_TRUE(index->tree()
                      .Delete(points[victim], static_cast<ObjectId>(victim))
                      .ok());
    }
  }
  ExpectImage(*index, 0xec2e5633e4a2654dULL, 241);
}

TEST(RStarBuildIdentityTest, DegenerateData) {
  const auto index = Build(Config(2, 1024), Degenerate(6000, 7));
  ExpectImage(*index, 0x58179aa0a1cb367dULL, 293);
}

}  // namespace
}  // namespace sqp::rstar
