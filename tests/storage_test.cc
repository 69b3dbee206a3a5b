// Tests for the persistent index storage subsystem (src/storage/):
// page format + CRC32C, page stores, node codec, and full-index
// save/open round trips including the paper's 16-disk bulk-load setting,
// plus corruption handling (flipped bytes, truncation, wrong version).

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/sequential_executor.h"
#include "parallel/parallel_tree.h"
#include "storage/index_io.h"
#include "storage/node_codec.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "tests/test_seeds.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace sqp {
namespace {

using parallel::DeclusterConfig;
using parallel::ParallelRStarTree;
using rstar::Entry;
using rstar::Node;
using rstar::PageId;
using rstar::TreeConfig;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sqp_storage_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

// --- CRC32C and page sealing --------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix / LevelDB tests).
  EXPECT_EQ(storage::Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(storage::Crc32c("", 0), 0u);
  // Incremental == one-shot.
  const char* s = "hello, storage";
  uint32_t inc = storage::Crc32cExtend(0, s, 6);
  inc = storage::Crc32cExtend(inc, s + 6, std::strlen(s) - 6);
  EXPECT_EQ(inc, storage::Crc32c(s, std::strlen(s)));
}

// Crc32cExtend runs the SSE4.2 instruction where the CPU has it; the table
// routine is the reference. (On a host without SSE4.2 both names run the
// table and these tests hold trivially.)
std::vector<uint8_t> CrcTestBytes(size_t n) {
  common::Rng rng(32);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(Crc32cTest, HardwareMatchesTableAtEveryLengthAndAlignment) {
  RecordProperty("sse42", storage::Crc32cUsesSse42() ? "yes" : "no");
  constexpr size_t kMaxLen = 4200;
  const std::vector<uint8_t> bytes = CrcTestBytes(kMaxLen + 8);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint8_t* p = bytes.data() + align;
      ASSERT_EQ(storage::Crc32cExtend(0, p, len),
                storage::Crc32cExtendTable(0, p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, ChainedExtendMatchesTable) {
  const std::vector<uint8_t> bytes = CrcTestBytes(4200);
  common::Rng rng(33);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 4200));
    const size_t start = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes.size() - len)));
    const uint8_t* p = bytes.data() + start;
    // Up to four split points, each piece continuing the running CRC of
    // the one before, from a nonzero seed half of the time.
    std::vector<size_t> cuts = {0, len};
    const int n_cuts = static_cast<int>(rng.UniformInt(0, 3));
    for (int c = 0; c < n_cuts; ++c) {
      cuts.push_back(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(len))));
    }
    std::sort(cuts.begin(), cuts.end());
    const uint32_t seed =
        iter % 2 == 0 ? 0u
                      : static_cast<uint32_t>(rng.UniformInt(1, 0xFFFFFFFF));
    uint32_t chained = seed;
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      chained = storage::Crc32cExtend(chained, p + cuts[c],
                                      cuts[c + 1] - cuts[c]);
    }
    ASSERT_EQ(chained, storage::Crc32cExtendTable(seed, p, len))
        << "iteration " << iter;
  }
}

TEST(PageFormatTest, SealAndCheckRoundTrip) {
  std::vector<uint8_t> page(512, 0xAB);
  storage::PageHeader h;
  h.type = storage::PageType::kNode;
  h.level = 3;
  h.page_id = 17;
  h.entry_count = 5;
  h.total_entries = 5;
  storage::WritePageHeader(h, page.data());
  storage::SealPage(page.data(), page.size());

  ASSERT_TRUE(storage::CheckPage(page.data(), page.size(),
                                 storage::PageType::kNode, "test page")
                  .ok());
  const storage::PageHeader back = storage::ReadPageHeader(page.data());
  EXPECT_EQ(back.level, 3);
  EXPECT_EQ(back.page_id, 17u);
  EXPECT_EQ(back.entry_count, 5u);

  // A flipped payload byte must fail the checksum.
  page[300] ^= 0x40;
  const common::Status corrupt = storage::CheckPage(
      page.data(), page.size(), storage::PageType::kNode, "test page");
  EXPECT_FALSE(corrupt.ok());
  EXPECT_TRUE(storage::IsCorruption(corrupt));
  EXPECT_NE(corrupt.message().find("checksum"), std::string::npos);
  page[300] ^= 0x40;

  // The wrong expected type is also corruption.
  EXPECT_FALSE(storage::CheckPage(page.data(), page.size(),
                                  storage::PageType::kDirectory, "test page")
                   .ok());
}

// --- Page stores ---------------------------------------------------------

TEST(PageStoreTest, MemReadWriteTruncate) {
  storage::MemPageStore store(3);
  EXPECT_EQ(store.num_disks(), 3);
  const std::string payload = "0123456789";
  ASSERT_TRUE(store.WriteAt(1, 100, payload.data(), payload.size()).ok());
  EXPECT_EQ(*store.SizeOf(1), 110u);
  EXPECT_EQ(*store.SizeOf(0), 0u);

  char buf[10];
  ASSERT_TRUE(store.ReadAt(1, 100, buf, sizeof(buf)).ok());
  EXPECT_EQ(std::string(buf, 10), payload);
  // Reading past the end is OutOfRange, not a crash.
  EXPECT_EQ(store.ReadAt(1, 105, buf, 10).code(),
            common::StatusCode::kOutOfRange);
  EXPECT_EQ(store.ReadAt(7, 0, buf, 1).code(),
            common::StatusCode::kInvalidArgument);

  ASSERT_TRUE(store.Truncate(1).ok());
  EXPECT_EQ(*store.SizeOf(1), 0u);
}

TEST(PageStoreTest, FileReadWriteReopen) {
  const std::string dir = MakeTempDir();
  {
    auto created = storage::FilePageStore::Create(dir, 2);
    ASSERT_TRUE(created.ok()) << created.status();
    const std::string payload = "persistent bytes";
    ASSERT_TRUE(
        (*created)->WriteAt(1, 64, payload.data(), payload.size()).ok());
    ASSERT_TRUE((*created)->Sync().ok());
  }
  auto opened = storage::FilePageStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ((*opened)->num_disks(), 2);
  char buf[16];
  ASSERT_TRUE((*opened)->ReadAt(1, 64, buf, sizeof(buf)).ok());
  EXPECT_EQ(std::string(buf, 16), "persistent bytes");
  EXPECT_EQ((*opened)->ReadAt(0, 0, buf, 1).code(),
            common::StatusCode::kOutOfRange);
  std::filesystem::remove_all(dir);
}

TEST(PageStoreTest, OpenMissingDirectoryIsNotFound) {
  auto opened = storage::FilePageStore::Open("/tmp/sqp_no_such_index_dir");
  EXPECT_EQ(opened.status().code(), common::StatusCode::kNotFound);
}

// --- Node codec ----------------------------------------------------------

Node MakeLeaf(PageId id, int dim, size_t n_entries) {
  Node n;
  n.id = id;
  n.level = 0;
  for (size_t i = 0; i < n_entries; ++i) {
    geometry::Point p(dim);
    for (int c = 0; c < dim; ++c) {
      p[c] = static_cast<float>(0.01 * static_cast<double>(i) + 0.001 * c);
    }
    n.entries.push_back(Entry::ForObject(p, 1000 + i));
  }
  return n;
}

void ExpectNodesEqual(const Node& a, const Node& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.level, b.level);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].mbr, b.entries[i].mbr) << "entry " << i;
    EXPECT_EQ(a.entries[i].child, b.entries[i].child) << "entry " << i;
    EXPECT_EQ(a.entries[i].object, b.entries[i].object) << "entry " << i;
    EXPECT_EQ(a.entries[i].count, b.entries[i].count) << "entry " << i;
  }
}

TEST(NodeCodecTest, LeafRoundTrip) {
  const size_t page_size = 512;
  const Node leaf = MakeLeaf(9, 2, 7);
  std::vector<uint8_t> buf;
  storage::EncodeNode(leaf, 2, page_size, &buf);
  ASSERT_EQ(buf.size(), page_size);
  auto back = storage::DecodeNode(buf.data(), 1, 2, page_size, 9, "leaf");
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectNodesEqual(leaf, *back);
}

TEST(NodeCodecTest, InternalMultiPageRoundTrip) {
  const size_t page_size = 512;
  const size_t per_page = storage::EntriesPerPage(3, page_size);
  Node internal;
  internal.id = 4;
  internal.level = 2;
  const size_t n_entries = 3 * per_page + 5;  // forces a 4-page record
  for (size_t i = 0; i < n_entries; ++i) {
    geometry::Point lo{0.1 * (i % 7), 0.2, 0.3};
    geometry::Point hi{0.1 * (i % 7) + 0.05, 0.4, 0.9};
    internal.entries.push_back(Entry::ForChild(
        geometry::Rect(lo, hi), static_cast<PageId>(100 + i), 11 + i));
  }
  ASSERT_EQ(storage::NodeSpan(internal, 3, page_size), 4u);

  std::vector<uint8_t> buf;
  storage::EncodeNode(internal, 3, page_size, &buf);
  ASSERT_EQ(buf.size(), 4 * page_size);
  auto back = storage::DecodeNode(buf.data(), 4, 3, page_size, 4, "node");
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectNodesEqual(internal, *back);

  // A record read back under the wrong page id is rejected.
  auto wrong = storage::DecodeNode(buf.data(), 4, 3, page_size, 5, "node");
  EXPECT_TRUE(storage::IsCorruption(wrong.status()));
}

TEST(NodeCodecTest, EmptyNodeRoundTrip) {
  Node empty;
  empty.id = 0;
  empty.level = 0;
  std::vector<uint8_t> buf;
  storage::EncodeNode(empty, 2, 512, &buf);
  auto back = storage::DecodeNode(buf.data(), 1, 2, 512, 0, "empty");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->entries.empty());
}

// --- Full-index round trips ----------------------------------------------

// Compares the loaded index against the original, structure and placement.
void ExpectIndexesIdentical(const ParallelRStarTree& a,
                            const ParallelRStarTree& b) {
  ASSERT_EQ(a.num_disks(), b.num_disks());
  EXPECT_EQ(a.tree().size(), b.tree().size());
  EXPECT_EQ(a.tree().root(), b.tree().root());
  EXPECT_EQ(a.tree().Height(), b.tree().Height());
  const std::vector<PageId> ids_a = a.tree().LiveNodeIds();
  ASSERT_EQ(ids_a, b.tree().LiveNodeIds());
  for (PageId id : ids_a) {
    ExpectNodesEqual(a.tree().node(id), b.tree().node(id));
    EXPECT_EQ(a.placement().DiskOf(id), b.placement().DiskOf(id));
    EXPECT_EQ(a.placement().MirrorOf(id), b.placement().MirrorOf(id));
    EXPECT_EQ(a.placement().CylinderOf(id), b.placement().CylinderOf(id));
  }
  EXPECT_EQ(a.placement().PagesPerDisk(), b.placement().PagesPerDisk());
  ASSERT_TRUE(b.tree().Validate().ok());
}

// Runs every algorithm on both indexes and demands byte-identical answers
// and identical page-access statistics.
void ExpectSameQueryBehavior(const ParallelRStarTree& a,
                             const ParallelRStarTree& b,
                             const std::vector<geometry::Point>& queries,
                             size_t k) {
  for (const core::AlgorithmKind kind :
       {core::AlgorithmKind::kCrss, core::AlgorithmKind::kBbss,
        core::AlgorithmKind::kFpss, core::AlgorithmKind::kWoptss}) {
    for (const geometry::Point& q : queries) {
      auto algo_a = core::MakeAlgorithm(kind, a.tree(), q, k, a.num_disks());
      auto algo_b = core::MakeAlgorithm(kind, b.tree(), q, k, b.num_disks());
      const core::ExecutionStats sa =
          core::RunToCompletion(a.tree(), algo_a.get());
      const core::ExecutionStats sb =
          core::RunToCompletion(b.tree(), algo_b.get());
      EXPECT_EQ(sa.pages_fetched, sb.pages_fetched)
          << core::AlgorithmName(kind);
      EXPECT_EQ(sa.steps, sb.steps) << core::AlgorithmName(kind);
      EXPECT_EQ(sa.max_batch, sb.max_batch) << core::AlgorithmName(kind);
      const auto res_a = algo_a->result().Sorted();
      const auto res_b = algo_b->result().Sorted();
      ASSERT_EQ(res_a.size(), res_b.size());
      for (size_t i = 0; i < res_a.size(); ++i) {
        EXPECT_EQ(res_a[i].object, res_b[i].object);
        EXPECT_EQ(res_a[i].dist_sq, res_b[i].dist_sq);
      }
    }
  }
}

TEST(IndexIoTest, InsertBuiltRoundTripInMemory) {
  const workload::Dataset data = workload::MakeClustered(800, 2, 5, 0.1, 3);
  TreeConfig tcfg;
  tcfg.dim = 2;
  tcfg.max_entries_override = 16;  // deep tree from a small data set
  DeclusterConfig dcfg;
  dcfg.num_disks = 5;
  auto original = workload::BuildParallelIndex(data, tcfg, dcfg);

  storage::MemPageStore store(dcfg.num_disks);
  ASSERT_TRUE(storage::SaveIndex(*original, &store).ok());
  auto reopened = storage::OpenIndex(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectIndexesIdentical(*original, **reopened);

  const auto queries = workload::MakeQueryPoints(
      data, 10, workload::QueryDistribution::kDataDistributed, 77);
  ExpectSameQueryBehavior(*original, **reopened, queries, 10);
}

// The acceptance scenario: a 16-disk bulk-loaded tree, saved and
// reopened, answers every algorithm's k-NN queries identically — same
// result sets, same simulated page-access counts.
TEST(IndexIoTest, BulkLoaded16DiskRoundTripIsExact) {
  const workload::Dataset data =
      workload::MakeClustered(5000, 2, 12, 0.1, 1998);
  TreeConfig tcfg;
  tcfg.dim = 2;  // default 4 KB pages: full nodes span 2 storage pages
  DeclusterConfig dcfg;
  dcfg.num_disks = 16;
  auto original = std::make_unique<ParallelRStarTree>(tcfg, dcfg);
  std::vector<rstar::ObjectId> ids(data.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  ASSERT_TRUE(original->tree().BulkLoad(data.points, ids).ok());

  const std::string dir = MakeTempDir() + "/bulk16.index";
  ASSERT_TRUE(storage::SaveIndexToDir(*original, dir).ok());
  auto reopened = storage::OpenIndexFromDir(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  ExpectIndexesIdentical(*original, **reopened);
  const auto queries = workload::MakeQueryPoints(
      data, 25, workload::QueryDistribution::kDataDistributed, 225);
  ExpectSameQueryBehavior(*original, **reopened, queries, 20);
  std::filesystem::remove_all(std::filesystem::path(dir).parent_path());
}

TEST(IndexIoTest, MirroredArrayKeepsReplicaPlacement) {
  const workload::Dataset data = workload::MakeUniform(600, 2, 11);
  TreeConfig tcfg;
  tcfg.dim = 2;
  tcfg.max_entries_override = 12;
  DeclusterConfig dcfg;
  dcfg.num_disks = 4;
  dcfg.mirrored = true;
  auto original = workload::BuildParallelIndex(data, tcfg, dcfg);

  storage::MemPageStore store(dcfg.num_disks);
  ASSERT_TRUE(storage::SaveIndex(*original, &store).ok());
  auto reopened = storage::OpenIndex(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectIndexesIdentical(*original, **reopened);
  for (PageId id : original->tree().LiveNodeIds()) {
    EXPECT_GE((*reopened)->placement().MirrorOf(id), 0);
  }
}

// Property test: random trees across seeds and shapes round-trip to
// k-NN-identical indexes for CRSS and BBSS.
TEST(IndexIoTest, RoundTripPropertyAcrossSeeds) {
  for (const uint64_t seed : test_seeds::kStorageRoundTripSeeds) {
    const size_t n = 300 + 150 * seed;
    const workload::Dataset data =
        workload::MakeClustered(n, 2, 4 + seed % 3, 0.15, seed);
    TreeConfig tcfg;
    tcfg.dim = 2;
    tcfg.max_entries_override = 8 + static_cast<int>(seed % 5);
    DeclusterConfig dcfg;
    dcfg.num_disks = 3 + static_cast<int>(seed % 6);
    dcfg.seed = seed;
    auto original = workload::BuildParallelIndex(data, tcfg, dcfg);

    storage::MemPageStore store(dcfg.num_disks);
    ASSERT_TRUE(storage::SaveIndex(*original, &store).ok());
    auto reopened = storage::OpenIndex(store);
    ASSERT_TRUE(reopened.ok()) << "seed " << seed << ": "
                               << reopened.status();

    const auto queries = workload::MakeQueryPoints(
        data, 8, workload::QueryDistribution::kDataDistributed, seed + 99);
    for (const geometry::Point& q : queries) {
      const auto truth = workload::BruteForceKnn(data, q, 5);
      for (const core::AlgorithmKind kind :
           {core::AlgorithmKind::kCrss, core::AlgorithmKind::kBbss}) {
        auto algo = core::MakeAlgorithm(kind, (*reopened)->tree(), q, 5,
                                        (*reopened)->num_disks());
        core::RunToCompletion((*reopened)->tree(), algo.get());
        const auto got = algo->result().Sorted();
        ASSERT_EQ(got.size(), truth.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].object, truth[i].first) << "seed " << seed;
          EXPECT_DOUBLE_EQ(got[i].dist_sq, truth[i].second);
        }
      }
    }
  }
}

TEST(IndexIoTest, LoadedIndexAcceptsUpdates) {
  const workload::Dataset data = workload::MakeUniform(400, 2, 5);
  TreeConfig tcfg;
  tcfg.dim = 2;
  tcfg.max_entries_override = 10;
  DeclusterConfig dcfg;
  dcfg.num_disks = 4;
  auto original = workload::BuildParallelIndex(data, tcfg, dcfg);
  storage::MemPageStore store(dcfg.num_disks);
  ASSERT_TRUE(storage::SaveIndex(*original, &store).ok());
  auto reopened = storage::OpenIndex(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  // The restored tree is live: it takes inserts and deletes and keeps its
  // invariants (including the Lemma 1 subtree counts).
  ParallelRStarTree& index = **reopened;
  for (int i = 0; i < 200; ++i) {
    geometry::Point p{0.001 * i, 1.0 - 0.001 * i};
    index.tree().Insert(p, 10000 + static_cast<rstar::ObjectId>(i));
  }
  ASSERT_TRUE(index.tree().Delete(data.points[0], 0).ok());
  EXPECT_EQ(index.tree().size(), data.size() + 200 - 1);
  EXPECT_TRUE(index.tree().Validate().ok());
}

TEST(IndexIoTest, ExtractDatasetRecoversPoints) {
  const workload::Dataset data = workload::MakeGaussian(500, 3, 21);
  TreeConfig tcfg;
  tcfg.dim = 3;
  tcfg.max_entries_override = 16;
  DeclusterConfig dcfg;
  dcfg.num_disks = 3;
  auto index = workload::BuildParallelIndex(data, tcfg, dcfg);
  const workload::Dataset back = workload::ExtractDataset(index->tree());
  ASSERT_EQ(back.size(), data.size());
  EXPECT_EQ(back.dim, 3);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(back.points[i], data.points[i]) << "object " << i;
  }
}

// --- Corruption handling -------------------------------------------------

struct SavedIndex {
  std::unique_ptr<ParallelRStarTree> index;
  std::unique_ptr<storage::MemPageStore> store;
};

SavedIndex SaveSmallIndex(int num_disks) {
  const workload::Dataset data = workload::MakeClustered(500, 2, 4, 0.1, 9);
  TreeConfig tcfg;
  tcfg.dim = 2;
  tcfg.max_entries_override = 12;
  DeclusterConfig dcfg;
  dcfg.num_disks = num_disks;
  SavedIndex saved;
  saved.index = workload::BuildParallelIndex(data, tcfg, dcfg);
  saved.store = std::make_unique<storage::MemPageStore>(num_disks);
  SQP_CHECK_OK(storage::SaveIndex(*saved.index, saved.store.get()));
  return saved;
}

TEST(CorruptionTest, FlippedByteFailsWithChecksumError) {
  SavedIndex saved = SaveSmallIndex(4);
  // Sanity: pristine bytes open fine.
  ASSERT_TRUE(storage::OpenIndex(*saved.store).ok());

  // Flip one byte in the middle of a node page on disk 2 (everything
  // after the superblock + directory is node data).
  std::vector<uint8_t>& bytes = saved.store->disk_bytes(2);
  ASSERT_GT(bytes.size(), 3 * 4096u);
  bytes[2 * 4096 + 1000] ^= 0x01;

  auto reopened = storage::OpenIndex(*saved.store);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(storage::IsCorruption(reopened.status()))
      << reopened.status();
  EXPECT_NE(reopened.status().message().find("checksum"), std::string::npos)
      << reopened.status();
}

TEST(CorruptionTest, TruncatedFileFailsCleanly) {
  SavedIndex saved = SaveSmallIndex(3);
  std::vector<uint8_t>& bytes = saved.store->disk_bytes(1);
  bytes.resize(bytes.size() / 2);

  auto reopened = storage::OpenIndex(*saved.store);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(storage::IsCorruption(reopened.status()))
      << reopened.status();
  EXPECT_NE(reopened.status().message().find("truncated"),
            std::string::npos)
      << reopened.status();
}

TEST(CorruptionTest, WrongFormatVersionGivesClearError) {
  SavedIndex saved = SaveSmallIndex(2);
  // Stamp a future format version into disk 0's superblock and re-seal
  // the checksum, simulating a file written by a newer build.
  std::vector<uint8_t>& bytes = saved.store->disk_bytes(0);
  storage::PutU16(bytes.data() + 4, 99);
  storage::SealPage(bytes.data(), 4096);

  auto reopened = storage::OpenIndex(*saved.store);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_NE(
      reopened.status().message().find("unsupported format version 99"),
      std::string::npos)
      << reopened.status();
}

TEST(CorruptionTest, ForeignFileIsRejected) {
  storage::MemPageStore store(2);
  const std::string junk(8192, 'x');
  ASSERT_TRUE(store.WriteAt(0, 0, junk.data(), junk.size()).ok());
  ASSERT_TRUE(store.WriteAt(1, 0, junk.data(), junk.size()).ok());
  auto reopened = storage::OpenIndex(store);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(storage::IsCorruption(reopened.status()))
      << reopened.status();
  EXPECT_NE(reopened.status().message().find("magic"), std::string::npos);
}

TEST(CorruptionTest, MissingDiskFileIsDetected) {
  SavedIndex saved = SaveSmallIndex(4);
  // Present the same bytes through a store with one disk missing, as when
  // a disk file was deleted: the superblock disk count disagrees.
  storage::MemPageStore partial(3);
  for (int d = 0; d < 3; ++d) {
    const std::vector<uint8_t>& bytes = saved.store->disk_bytes(d);
    ASSERT_TRUE(partial.WriteAt(d, 0, bytes.data(), bytes.size()).ok());
  }
  auto reopened = storage::OpenIndex(partial);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(storage::IsCorruption(reopened.status()))
      << reopened.status();
}

}  // namespace
}  // namespace sqp
