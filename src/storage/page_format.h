// On-disk page format shared by every persistent structure (docs/STORAGE.md).
//
// All multi-byte fields are little-endian regardless of host byte order.
// Every page starts with a fixed 40-byte header carrying a magic number,
// the format version, the page type and a CRC32C checksum computed over
// the whole page (with the checksum field itself zeroed). Readers verify
// magic, version and checksum before interpreting a single payload byte,
// so corruption surfaces as a common::Status error instead of undefined
// behavior.

#ifndef SQP_STORAGE_PAGE_FORMAT_H_
#define SQP_STORAGE_PAGE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace sqp::storage {

// "SQPG" in ASCII; first four bytes of every page.
inline constexpr uint32_t kPageMagic = 0x47505153;

// Bumped whenever the page layout changes incompatibly. Readers reject any
// other version with a clear error (no silent reinterpretation).
inline constexpr uint16_t kFormatVersion = 1;

enum class PageType : uint8_t {
  kSuperblock = 1,        // per-disk-file metadata + index configuration
  kDirectory = 2,         // page-id -> file-offset records for one disk
  kNode = 3,              // first (or only) page of a serialized tree node
  kNodeContinuation = 4,  // overflow pages of a multi-page node record
};

// Header layout (byte offsets within the page):
//   0  u32 magic
//   4  u16 format version
//   6  u8  page type
//   7  u8  node level (kNode/kNodeContinuation; 0 otherwise)
//   8  u32 crc32c over the page with these four bytes zeroed
//   12 u32 page id (tree PageId; 0 for superblock/directory pages)
//   16 u32 entry count in this page (node entries / directory records)
//   20 u32 total entries in the whole record (== entry count when span 1)
//   24 u16 span: number of pages in this record
//   26 u16 seq: index of this page within its record [0, span)
//   28 12B reserved (zero)
inline constexpr size_t kPageHeaderBytes = 40;
inline constexpr size_t kCrcFieldOffset = 8;

struct PageHeader {
  PageType type = PageType::kNode;
  uint8_t level = 0;
  uint32_t page_id = 0;
  uint32_t entry_count = 0;
  uint32_t total_entries = 0;
  uint16_t span = 1;
  uint16_t seq = 0;
};

// --- Little-endian primitives -------------------------------------------

inline void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}
inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}
inline void PutF32(uint8_t* p, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(p, bits);
}
inline float GetF32(const uint8_t* p) {
  const uint32_t bits = GetU32(p);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
inline void PutF64(uint8_t* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(p, bits);
}
inline double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
inline void PutI32(uint8_t* p, int32_t v) {
  PutU32(p, static_cast<uint32_t>(v));
}
inline int32_t GetI32(const uint8_t* p) {
  return static_cast<int32_t>(GetU32(p));
}

// --- Checksumming -------------------------------------------------------

// CRC32C (Castagnoli polynomial, as used by iSCSI/ext4/LevelDB).
// `Crc32cExtend` continues a running checksum. On x86-64 hosts whose CPU
// has SSE4.2 it runs the `crc32` instruction 8 bytes per step (chosen
// once, at the first call); elsewhere it runs the byte-at-a-time table.
// Both compute the same function, so every stored checksum is the same.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);
uint32_t Crc32c(const void* data, size_t len);

// The portable table routine on its own, on every host: the reference the
// hardware path is tested against.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t len);

// True when Crc32cExtend runs the SSE4.2 instruction on this host.
bool Crc32cUsesSse42();

// An error class for on-disk damage (bit rot, truncation, foreign files).
// Kept distinct from InvalidArgument so callers can tell "you handed me a
// bad argument" from "the bytes on disk are bad".
common::Status CorruptionError(std::string message);
bool IsCorruption(const common::Status& s);

// Names a page or record in error messages: either a fixed string, or a
// callable returning std::string that runs only when a check fails, so a
// page that passes every check builds no text. Like std::string_view it
// does not own what it refers to: use it as a parameter type only.
class PageName {
 public:
  PageName(const std::string& text) : text_(text) {}  // NOLINT
  PageName(const char* text) : text_(text) {}         // NOLINT
  template <typename Format>
    requires std::is_invocable_r_v<std::string, const Format&>
  PageName(const Format& format)  // NOLINT
      : format_(&format), call_([](const void* f) -> std::string {
          return (*static_cast<const Format*>(f))();
        }) {}

  std::string str() const {
    return call_ != nullptr ? call_(format_) : std::string(text_);
  }

 private:
  std::string_view text_;
  const void* format_ = nullptr;
  std::string (*call_)(const void*) = nullptr;
};

// --- Page header read/write ---------------------------------------------

// Writes magic, version and `h` into `page` (checksum left zero). The
// payload must be filled in afterwards, then the page sealed.
void WritePageHeader(const PageHeader& h, uint8_t* page);

// Computes and stamps the checksum of a fully assembled page. Must be the
// last write to the buffer.
void SealPage(uint8_t* page, size_t page_size);

// Verifies magic, format version and checksum of `page`, in that order,
// and checks the page type. `what` names the page in error messages, e.g.
// "disk 3 page 17". Returns CorruptionError / InvalidArgument on failure.
common::Status CheckPage(const uint8_t* page, size_t page_size,
                         PageType expected_type, const PageName& what);

// Parses the header fields. Call only after CheckPage succeeded.
PageHeader ReadPageHeader(const uint8_t* page);

}  // namespace sqp::storage

#endif  // SQP_STORAGE_PAGE_FORMAT_H_
