#include "storage/page_format.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/check.h"

namespace sqp::storage {
namespace {

// Reflected CRC32C table for the Castagnoli polynomial 0x1EDC6F41
// (reflected form 0x82F63B78), built once on first use.
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

const uint32_t* Table() {
  static const Crc32cTable table;
  return table.entries;
}

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction is one step of the same reflected
// Castagnoli CRC as the table loop; the 64-bit form consumes 8 bytes,
// lowest address first (x86 is little-endian).
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = crc ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

Crc32cFn SelectCrc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
  return Crc32cExtendTable;
}

Crc32cFn Crc32cImpl() {
  static const Crc32cFn impl = SelectCrc32c();
  return impl;
}

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint32_t* table = Table();
  crc ^= 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return Crc32cImpl()(crc, data, len);
}

bool Crc32cUsesSse42() { return Crc32cImpl() != Crc32cExtendTable; }

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

common::Status CorruptionError(std::string message) {
  return common::Status::Internal("corruption: " + std::move(message));
}

bool IsCorruption(const common::Status& s) {
  return s.code() == common::StatusCode::kInternal &&
         s.message().rfind("corruption: ", 0) == 0;
}

namespace {

// Checksum of `page` with the CRC field treated as zero.
uint32_t PageCrc(const uint8_t* page, size_t page_size) {
  static const uint8_t kZeros[4] = {0, 0, 0, 0};
  uint32_t crc = Crc32cExtend(0, page, kCrcFieldOffset);
  crc = Crc32cExtend(crc, kZeros, sizeof(kZeros));
  return Crc32cExtend(crc, page + kCrcFieldOffset + 4,
                      page_size - kCrcFieldOffset - 4);
}

}  // namespace

void WritePageHeader(const PageHeader& h, uint8_t* page) {
  PutU32(page + 0, kPageMagic);
  PutU16(page + 4, kFormatVersion);
  page[6] = static_cast<uint8_t>(h.type);
  page[7] = h.level;
  PutU32(page + 8, 0);  // checksum; stamped by SealPage
  PutU32(page + 12, h.page_id);
  PutU32(page + 16, h.entry_count);
  PutU32(page + 20, h.total_entries);
  PutU16(page + 24, h.span);
  PutU16(page + 26, h.seq);
  std::memset(page + 28, 0, kPageHeaderBytes - 28);
}

void SealPage(uint8_t* page, size_t page_size) {
  SQP_CHECK(page_size > kPageHeaderBytes);
  PutU32(page + kCrcFieldOffset, PageCrc(page, page_size));
}

common::Status CheckPage(const uint8_t* page, size_t page_size,
                         PageType expected_type, const PageName& what) {
  if (GetU32(page) != kPageMagic) {
    return CorruptionError(what.str() + ": bad page magic 0x" +
                           [](uint32_t v) {
                             char buf[9];
                             std::snprintf(buf, sizeof(buf), "%08x", v);
                             return std::string(buf);
                           }(GetU32(page)));
  }
  const uint16_t version = GetU16(page + 4);
  if (version != kFormatVersion) {
    return common::Status::InvalidArgument(
        what.str() + ": unsupported format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kFormatVersion) +
        "; re-save the index with a matching build)");
  }
  const uint32_t stored = GetU32(page + kCrcFieldOffset);
  const uint32_t computed = PageCrc(page, page_size);
  if (stored != computed) {
    return CorruptionError(what.str() + ": checksum mismatch (stored " +
                           std::to_string(stored) + ", computed " +
                           std::to_string(computed) + ")");
  }
  if (page[6] != static_cast<uint8_t>(expected_type)) {
    return CorruptionError(what.str() + ": expected page type " +
                           std::to_string(static_cast<int>(expected_type)) +
                           ", found " + std::to_string(page[6]));
  }
  return common::Status::OK();
}

PageHeader ReadPageHeader(const uint8_t* page) {
  PageHeader h;
  h.type = static_cast<PageType>(page[6]);
  h.level = page[7];
  h.page_id = GetU32(page + 12);
  h.entry_count = GetU32(page + 16);
  h.total_entries = GetU32(page + 20);
  h.span = GetU16(page + 24);
  h.seq = GetU16(page + 26);
  return h;
}

}  // namespace sqp::storage
