// Fuzz-style robustness tests of the on-disk decoders: node_codec,
// page_format and the index bootstrap (superblock + directory) readers.
// Thousands of seeded random mutations — bit flips, byte stomps,
// truncations, resealed-header forgeries — are thrown at DecodeNode,
// CheckPage and ReadIndexLayout/OpenIndex. The decoders must never crash,
// over-read, or return OK for an image that fails verification; damage
// surfaces as a Status (usually CorruptionError). Crafted-but-resealed
// headers additionally pin the bounds checks: a checksummed page whose
// counts imply absurd allocations must be rejected, not trusted. Every
// node record also goes through DecodeFlatNode, which must reach the same
// verdict with the same error, and on success the same node bit for bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/flat_node.h"
#include "parallel/parallel_tree.h"
#include "storage/index_io.h"
#include "storage/node_codec.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using parallel::DeclusterPolicy;

constexpr size_t kPage = 1024;  // small pages -> multi-page records too
constexpr int kDim = 2;

rstar::Node MakeNode(rstar::PageId id, uint8_t level, int n_entries,
                     uint64_t seed, int dim = kDim) {
  common::Rng rng(seed);
  rstar::Node node;
  node.id = id;
  node.level = level;
  for (int i = 0; i < n_entries; ++i) {
    geometry::Point lo(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = static_cast<geometry::Coord>(rng.Uniform());
    }
    geometry::Point hi = lo;
    for (int d = 0; d < dim; ++d) {
      hi[d] += static_cast<geometry::Coord>(rng.Uniform());
    }
    if (level == 0) {
      node.entries.push_back(rstar::Entry::ForObject(
          lo, static_cast<rstar::ObjectId>(rng.UniformInt(0, 1 << 20))));
    } else {
      rstar::Entry e;
      e.mbr = geometry::Rect(lo, hi);
      e.child = static_cast<rstar::PageId>(rng.UniformInt(1, 1 << 16));
      e.count = static_cast<uint32_t>(rng.UniformInt(1, 1000));
      node.entries.push_back(e);
    }
  }
  return node;
}

// Round-trips `node` and returns the encoded image.
std::vector<uint8_t> Encode(const rstar::Node& node, int dim = kDim) {
  std::vector<uint8_t> image;
  storage::EncodeNode(node, dim, kPage, &image);
  return image;
}

void ExpectSameFlat(const core::FlatNode& want, const core::FlatNode& got) {
  ASSERT_EQ(got.id(), want.id());
  ASSERT_EQ(got.level(), want.level());
  ASSERT_EQ(got.dim(), want.dim());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.object(i), want.object(i)) << "entry " << i;
    ASSERT_EQ(got.child(i), want.child(i)) << "entry " << i;
    ASSERT_EQ(got.count(i), want.count(i)) << "entry " << i;
    for (int j = 0; j < want.dim(); ++j) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got.lo(j, i)),
                std::bit_cast<uint32_t>(want.lo(j, i)))
          << "entry " << i << " lo " << j;
      ASSERT_EQ(std::bit_cast<uint32_t>(got.hi(j, i)),
                std::bit_cast<uint32_t>(want.hi(j, i)))
          << "entry " << i << " hi " << j;
    }
  }
}

// Decodes `span` pages at `data` with DecodeNode and DecodeFlatNode and
// checks that the two agree: the same verdict, the same error (code and
// message), and on success a FlatNode equal field for field to
// FlatNode::FromNode of the decoded Node. Returns DecodeNode's result.
common::Result<rstar::Node> DecodeBoth(const uint8_t* data, uint32_t span,
                                       int dim, rstar::PageId id) {
  auto node = storage::DecodeNode(data, span, dim, kPage, id,
                                  "fuzzed record");
  auto flat = storage::DecodeFlatNode(data, span, dim, kPage, id,
                                      "fuzzed record");
  EXPECT_EQ(flat.ok(), node.ok()) << node.status() << " / " << flat.status();
  if (!node.ok() && !flat.ok()) {
    EXPECT_EQ(flat.status(), node.status());  // code (so class) and message
  }
  if (node.ok() && flat.ok()) {
    ExpectSameFlat(core::FlatNode::FromNode(*node, dim), *flat);
  }
  return node;
}

common::Result<rstar::Node> Decode(const std::vector<uint8_t>& image,
                                   rstar::PageId id, int dim = kDim) {
  return DecodeBoth(image.data(), static_cast<uint32_t>(image.size() / kPage),
                    dim, id);
}

// --- Random mutations of valid node images --------------------------------

struct CorpusRecord {
  rstar::PageId id;
  int dim;
  std::vector<uint8_t> image;
};

// Throws `iters` seeded random mutation sets at records of `corpus`;
// returns how many damaged images were rejected.
size_t RunByteMutations(const std::vector<CorpusRecord>& corpus,
                        uint64_t seed, int iters) {
  for (const CorpusRecord& r : corpus) {
    EXPECT_TRUE(Decode(r.image, r.id, r.dim).ok());
    EXPECT_EQ(r.image.size() % kPage, 0u);
  }

  common::Rng rng(seed);
  size_t rejected = 0;
  for (int iter = 0; iter < iters; ++iter) {
    const CorpusRecord& r = corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    const std::vector<uint8_t>& original = r.image;
    std::vector<uint8_t> image = original;
    // 1-8 independent mutations: bit flip, byte stomp, or zeroed run.
    const int n_mutations = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < n_mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(image.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          image[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
          break;
        case 1:
          image[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
          break;
        default: {
          const size_t run = std::min(
              image.size() - pos,
              static_cast<size_t>(rng.UniformInt(1, 64)));
          std::memset(image.data() + pos, 0, run);
          break;
        }
      }
    }
    // Must never crash; OK only if the mutations happened to cancel out
    // (byte stomps can write the original value back).
    auto result = Decode(image, r.id, r.dim);
    if (result.ok()) {
      EXPECT_EQ(std::memcmp(image.data(), original.data(), image.size()), 0)
          << "decoder accepted a damaged image on iteration " << iter;
    } else {
      ++rejected;
    }
  }
  return rejected;
}

TEST(CodecFuzzTest, RandomByteMutationsNeverCrashOrDecode) {
  // A corpus mixing leaf/internal, single- and multi-page records.
  std::vector<CorpusRecord> corpus;
  corpus.push_back({3, kDim, Encode(MakeNode(3, 0, 5, 1))});
  corpus.push_back({9, kDim, Encode(MakeNode(9, 2, 30, 2))});
  corpus.push_back({11, kDim, Encode(MakeNode(11, 0, 60, 3))});   // span > 1
  corpus.push_back({12, kDim, Encode(MakeNode(12, 1, 120, 4))});  // span > 2
  corpus.push_back({1, kDim, Encode(MakeNode(1, 0, 0, 5))});      // empty
  EXPECT_GT(RunByteMutations(corpus, 20250806, 6000), 5000u);

  // The knn-hot shape's dimensionality: 12 entries per 1 KB page, so
  // these records span 1, 3 and 2 pages.
  constexpr int kDim8 = 8;
  std::vector<CorpusRecord> corpus8;
  corpus8.push_back({5, kDim8, Encode(MakeNode(5, 0, 7, 11, kDim8), kDim8)});
  corpus8.push_back(
      {6, kDim8, Encode(MakeNode(6, 0, 30, 12, kDim8), kDim8)});
  corpus8.push_back(
      {7, kDim8, Encode(MakeNode(7, 2, 20, 13, kDim8), kDim8)});
  EXPECT_GT(RunByteMutations(corpus8, 20250807, 3000), 2500u);
}

TEST(CodecFuzzTest, TruncatedAndOversizedTailsAreRejected) {
  const rstar::Node node = MakeNode(21, 0, 90, 6);  // multi-page record
  const std::vector<uint8_t> image = Encode(node);
  const uint32_t span = static_cast<uint32_t>(image.size() / kPage);
  ASSERT_GE(span, 2u);

  // Feeding a shorter span than the record's own header claims must fail
  // cleanly (the header says "span pages" but only span-1 are provided —
  // the decoder must not read past its input).
  auto short_result = DecodeBoth(image.data(), span - 1, kDim, 21);
  EXPECT_FALSE(short_result.ok());

  // Zeroed final page: checksum of that page fails.
  std::vector<uint8_t> zero_tail = image;
  std::memset(zero_tail.data() + (span - 1) * kPage, 0, kPage);
  EXPECT_FALSE(Decode(zero_tail, 21).ok());

  // Continuation page swapped in from a different record.
  std::vector<uint8_t> foreign = image;
  const std::vector<uint8_t> other = Encode(MakeNode(22, 0, 90, 7));
  std::memcpy(foreign.data() + (span - 1) * kPage,
              other.data() + (span - 1) * kPage, kPage);
  EXPECT_FALSE(Decode(foreign, 21).ok());

  // Wrong expected id: the record is valid but belongs to someone else.
  EXPECT_FALSE(Decode(image, 20).ok());
}

void RunResealedForgeries(const std::vector<uint8_t>& image,
                          rstar::PageId id, int dim, uint64_t seed) {
  const uint32_t span = static_cast<uint32_t>(image.size() / kPage);
  ASSERT_GE(span, 2u);  // continuation-page chain checks must be in play

  struct Forgery {
    const char* name;
    size_t offset;   // header byte offset within page 0
    uint32_t value;  // little-endian u32 to stomp in
  };
  const Forgery forgeries[] = {
      // total_entries far beyond what `span` pages can carry: the bounds
      // check must reject it BEFORE reserving memory for 4 billion
      // entries.
      {"huge total_entries", 20, 0xFFFFFFFFu},
      {"entry_count beyond page capacity", 16, 0x00FFFFFFu},
      {"zero span", 24, 0u},               // span+seq share this word
      {"span larger than input", 24, 64u},
      {"seq nonzero on first page", 24, span | (1u << 16)},
      {"foreign page id", 12, 0xDEADu},
  };
  for (const Forgery& f : forgeries) {
    std::vector<uint8_t> forged = image;
    storage::PutU32(forged.data() + f.offset, f.value);
    storage::SealPage(forged.data(), kPage);  // make the CRC pass again
    auto result = Decode(forged, id, dim);
    EXPECT_FALSE(result.ok()) << "forgery '" << f.name << "' was accepted";
  }

  // Randomized header stomps, resealed: still must never crash or be
  // accepted as some other record.
  common::Rng rng(seed);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> forged = image;
    const int page = static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(span) - 1));
    uint8_t* header = forged.data() + static_cast<size_t>(page) * kPage;
    const int n_stomps = static_cast<int>(rng.UniformInt(1, 3));
    for (int s = 0; s < n_stomps; ++s) {
      // Stomp any semantic header field (type through seq, bytes [6, 28)),
      // skipping magic/version so the page still looks like ours and
      // reaches the semantic checks, and skipping the reserved tail bytes
      // that no check can see. A CRC stomp is erased by the reseal.
      const size_t off = 6 + static_cast<size_t>(rng.UniformInt(0, 21));
      header[off] = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    storage::SealPage(header, kPage);
    auto result = Decode(forged, id, dim);
    if (result.ok()) {
      // The stomps must have restored the original header bytes.
      ASSERT_EQ(std::memcmp(forged.data(), image.data(), forged.size()), 0)
          << "iteration " << iter;
    }
  }
}

// Forged-but-checksummed headers: reseal after each field edit so only the
// semantic validation (not the CRC) stands between the decoder and a bogus
// allocation or overflow.
TEST(CodecFuzzTest, ResealedHeaderForgeriesAreRejected) {
  RunResealedForgeries(Encode(MakeNode(33, 1, 40, 8)), 33, kDim, 44);
  constexpr int kDim8 = 8;
  RunResealedForgeries(Encode(MakeNode(34, 0, 30, 9, kDim8), kDim8), 34,
                       kDim8, 45);
}

TEST(CodecFuzzTest, CheckPageOnRandomBuffersNeverCrashes) {
  common::Rng rng(55);
  std::vector<uint8_t> buf(kPage);
  int passed = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    for (auto& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    if (iter % 4 == 0) {
      // Make the magic/version plausible so deeper checks run too.
      storage::PutU32(buf.data(), storage::kPageMagic);
      storage::PutU16(buf.data() + 4, storage::kFormatVersion);
    }
    if (iter % 8 == 0) {
      storage::SealPage(buf.data(), kPage);  // CRC valid, content random
    }
    const common::Status s = storage::CheckPage(
        buf.data(), kPage, storage::PageType::kNode, "random page");
    if (s.ok()) ++passed;
  }
  // Sealed random pages may pass CheckPage (type byte roulette) but the
  // overwhelming majority must fail; none may crash.
  EXPECT_LT(passed, 2000 / 8);
}

// --- Index image (superblock + directory) fuzz ----------------------------

storage::MemPageStore SaveSmallIndex(
    std::unique_ptr<parallel::ParallelRStarTree>* index_out) {
  const workload::Dataset data = workload::MakeClustered(400, 2, 6, 0.1, 9);
  rstar::TreeConfig tree_config;
  tree_config.dim = 2;
  tree_config.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = 3;
  dc.policy = DeclusterPolicy::kProximityIndex;
  auto index = workload::BuildParallelIndex(data, tree_config, dc);
  storage::MemPageStore store(3);
  SQP_CHECK(storage::SaveIndex(*index, &store).ok());
  if (index_out != nullptr) *index_out = std::move(index);
  return store;
}

TEST(IndexImageFuzzTest, MutatedImagesNeverCrashTheBootstrap) {
  storage::MemPageStore pristine = SaveSmallIndex(nullptr);
  ASSERT_TRUE(storage::ReadIndexLayout(pristine).ok());

  common::Rng rng(66);
  size_t rejected = 0;
  for (int iter = 0; iter < 800; ++iter) {
    storage::MemPageStore store = pristine;  // fresh copy to damage
    const int disk = static_cast<int>(rng.UniformInt(0, 2));
    const uint64_t size = *store.SizeOf(disk);
    ASSERT_GT(size, 0u);
    // Damage a random run of bytes somewhere on one disk.
    const uint64_t pos = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(size) - 1));
    const size_t run = static_cast<size_t>(std::min<uint64_t>(
        static_cast<uint64_t>(rng.UniformInt(1, 256)), size - pos));
    std::vector<uint8_t> junk(run);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    ASSERT_TRUE(store.WriteAt(disk, pos, junk.data(), run).ok());

    // Neither the layout bootstrap nor the full open may crash; both must
    // either reject the image or succeed having dodged the damage (the
    // stomp may land in node payloads the bootstrap never reads, or write
    // back identical bytes).
    auto layout = storage::ReadIndexLayout(store);
    auto opened = storage::OpenIndex(store);
    if (!layout.ok()) ++rejected;
    if (layout.ok() && !opened.ok()) {
      // Bootstrap dodged the damage but a node record did not — that is
      // the expected split when the stomp lands past the directory.
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(IndexImageFuzzTest, ForgedDirectoryCountsAreBoundedNotTrusted) {
  storage::MemPageStore pristine = SaveSmallIndex(nullptr);
  auto layout = storage::ReadIndexLayout(pristine);
  ASSERT_TRUE(layout.ok());
  const size_t page_size = layout->page_size;

  // Each forgery stomps one count field on disk 0, reseals the page's CRC,
  // and expects BOTH the layout bootstrap and the full open to reject the
  // image. The real point: rejection must come from semantic validation
  // BEFORE any count-sized allocation or read (a DoS if counts were
  // trusted). The superblock keeps its counts in the page payload; the
  // directory keeps per-page record counts in the page header.
  struct Forgery {
    const char* name;
    uint64_t page_offset;  // byte offset of the page to forge on disk 0
    size_t field_offset;   // byte offset of the u32 field within the page
  };
  const Forgery forgeries[] = {
      // Superblock payload (offsets fixed by the on-disk format).
      {"superblock page_slots", 0, 60},
      {"superblock root", 0, 64},
      {"superblock dir_page_count", 0, 68},
      {"superblock live_pages", 0, 80},
      // First directory page: header entry_count far beyond what one page
      // of 20-byte records can carry.
      {"directory entry_count", page_size, 16},
  };
  for (const Forgery& f : forgeries) {
    storage::MemPageStore store = pristine;  // fresh copy to forge
    std::vector<uint8_t> page(page_size);
    ASSERT_TRUE(
        store.ReadAt(0, f.page_offset, page.data(), page.size()).ok());
    ASSERT_EQ(storage::GetU32(page.data()), storage::kPageMagic);
    storage::PutU32(page.data() + f.field_offset, 0xFFFFFF00u);
    storage::SealPage(page.data(), page.size());
    ASSERT_TRUE(
        store.WriteAt(0, f.page_offset, page.data(), page.size()).ok());

    EXPECT_FALSE(storage::ReadIndexLayout(store).ok())
        << "layout accepted forged " << f.name;
    EXPECT_FALSE(storage::OpenIndex(store).ok())
        << "open accepted forged " << f.name;
  }
}

TEST(IndexImageFuzzTest, TruncatedDiskFilesAreRejected) {
  std::unique_ptr<parallel::ParallelRStarTree> index;
  storage::MemPageStore pristine = SaveSmallIndex(&index);
  for (int disk = 0; disk < 3; ++disk) {
    const uint64_t size = *pristine.SizeOf(disk);
    common::Rng rng(static_cast<uint64_t>(disk) + 70);
    for (int iter = 0; iter < 20; ++iter) {
      storage::MemPageStore store = pristine;
      const uint64_t keep = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(size) - 1));
      ASSERT_TRUE(store.Truncate(disk).ok());
      if (keep > 0) {
        std::vector<uint8_t> head(keep);
        ASSERT_TRUE(pristine.ReadAt(disk, 0, head.data(), keep).ok());
        ASSERT_TRUE(store.WriteAt(disk, 0, head.data(), keep).ok());
      }
      // A truncated disk can never open successfully: some record,
      // directory or superblock is missing its bytes.
      EXPECT_FALSE(storage::OpenIndex(store).ok())
          << "disk " << disk << " truncated to " << keep << " bytes";
    }
  }
}

}  // namespace
}  // namespace sqp
