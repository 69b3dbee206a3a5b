#include "storage/node_codec.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "core/flat_node.h"

namespace sqp::storage {

size_t EntryRecordBytes(int dim) { return 8 * static_cast<size_t>(dim) + 12; }

size_t EntriesPerPage(int dim, size_t page_size) {
  SQP_CHECK(page_size > kPageHeaderBytes + EntryRecordBytes(dim));
  return (page_size - kPageHeaderBytes) / EntryRecordBytes(dim);
}

uint32_t NodeSpan(const rstar::Node& node, int dim, size_t page_size) {
  const size_t per_page = EntriesPerPage(dim, page_size);
  const size_t span = (node.entries.size() + per_page - 1) / per_page;
  return span < 1 ? 1 : static_cast<uint32_t>(span);
}

void EncodeNode(const rstar::Node& node, int dim, size_t page_size,
                std::vector<uint8_t>* out) {
  const size_t per_page = EntriesPerPage(dim, page_size);
  const size_t record_bytes = EntryRecordBytes(dim);
  const uint32_t span = NodeSpan(node, dim, page_size);
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(span) * page_size, 0);

  size_t next_entry = 0;
  for (uint32_t seq = 0; seq < span; ++seq) {
    uint8_t* page = out->data() + base + static_cast<size_t>(seq) * page_size;
    const size_t in_page =
        std::min(per_page, node.entries.size() - next_entry);
    PageHeader h;
    h.type = seq == 0 ? PageType::kNode : PageType::kNodeContinuation;
    h.level = static_cast<uint8_t>(node.level);
    h.page_id = node.id;
    h.entry_count = static_cast<uint32_t>(in_page);
    h.total_entries = static_cast<uint32_t>(node.entries.size());
    h.span = static_cast<uint16_t>(span);
    h.seq = static_cast<uint16_t>(seq);
    WritePageHeader(h, page);

    uint8_t* rec = page + kPageHeaderBytes;
    for (size_t i = 0; i < in_page; ++i, ++next_entry, rec += record_bytes) {
      const rstar::Entry& e = node.entries[next_entry];
      SQP_DCHECK(e.mbr.dim() == dim);
      for (int c = 0; c < dim; ++c) PutF32(rec + 4 * c, e.mbr.lo()[c]);
      for (int c = 0; c < dim; ++c) {
        PutF32(rec + 4 * (dim + c), e.mbr.hi()[c]);
      }
      const uint64_t ref = node.IsLeaf() ? e.object
                                         : static_cast<uint64_t>(e.child);
      PutU64(rec + 8 * dim, ref);
      PutU32(rec + 8 * dim + 8, e.count);
    }
    SealPage(page, page_size);
  }
  SQP_DCHECK(next_entry == node.entries.size());
}

common::Result<core::FlatNode> DecodeFlatNode(const uint8_t* data,
                                              uint32_t span, int dim,
                                              size_t page_size,
                                              rstar::PageId expected_id,
                                              const PageName& what) {
  const size_t per_page = EntriesPerPage(dim, page_size);
  const size_t record_bytes = EntryRecordBytes(dim);
  if (span < 1) {
    return CorruptionError(what.str() + ": zero-page node record");
  }

  core::FlatNode flat;
  uint8_t level = 0;
  uint32_t total_entries = 0;
  size_t decoded = 0;
  for (uint32_t seq = 0; seq < span; ++seq) {
    const uint8_t* page = data + static_cast<size_t>(seq) * page_size;
    const PageType expected_type =
        seq == 0 ? PageType::kNode : PageType::kNodeContinuation;
    SQP_RETURN_IF_ERROR(CheckPage(page, page_size, expected_type, what));
    const PageHeader h = ReadPageHeader(page);
    if (h.page_id != expected_id || h.span != span || h.seq != seq) {
      return CorruptionError(
          what.str() + ": node record chain mismatch (page " +
          std::to_string(h.page_id) + " seq " + std::to_string(h.seq) + "/" +
          std::to_string(h.span) + ")");
    }
    if (seq == 0) {
      // Bound before allocating: a crafted-but-checksummed header could
      // otherwise demand a multi-gigabyte allocation.
      if (h.total_entries > static_cast<uint64_t>(span) * per_page) {
        return CorruptionError(
            what.str() + ": total entry count " +
            std::to_string(h.total_entries) + " exceeds record capacity " +
            std::to_string(static_cast<uint64_t>(span) * per_page));
      }
      level = h.level;
      total_entries = h.total_entries;
      flat = core::FlatNode::Allocate(expected_id, level, dim, total_entries);
    } else if (h.level != level || h.total_entries != total_entries) {
      return CorruptionError(what.str() +
                             ": header fields differ across node pages");
    }
    if (h.entry_count > per_page ||
        (seq + 1 < span && h.entry_count != per_page)) {
      return CorruptionError(what.str() + ": bad per-page entry count");
    }

    // Each entry is checked, then written straight into its arena slots.
    // Entries past the header's total are checked but not stored; the
    // count check below rejects the record.
    const uint8_t* rec = page + kPageHeaderBytes;
    for (uint32_t i = 0; i < h.entry_count; ++i, rec += record_bytes) {
      const size_t slot = decoded + i;
      const bool store = slot < total_entries;
      for (int c = 0; c < dim; ++c) {
        const float lo = GetF32(rec + 4 * c);
        const float hi = GetF32(rec + 4 * (dim + c));
        // False for a NaN on either side as well as for lo > hi.
        if (!(lo <= hi)) {
          return CorruptionError(what.str() + ": invalid MBR in entry " +
                                 std::to_string(slot));
        }
        if (store) {
          flat.mutable_lo_plane(c)[slot] = lo;
          flat.mutable_hi_plane(c)[slot] = hi;
        }
      }
      const uint64_t ref = GetU64(rec + 8 * dim);
      if (level != 0 && ref >= rstar::kInvalidPage) {
        return CorruptionError(what.str() + ": child pointer " +
                               std::to_string(ref) + " out of PageId range");
      }
      if (store) {
        const bool leaf = level == 0;
        flat.mutable_objects()[slot] = leaf ? ref : rstar::kInvalidObject;
        flat.mutable_children()[slot] =
            leaf ? rstar::kInvalidPage : static_cast<rstar::PageId>(ref);
        flat.mutable_counts()[slot] = GetU32(rec + 8 * dim + 8);
      }
    }
    decoded += h.entry_count;
  }

  if (decoded != total_entries) {
    return CorruptionError(
        what.str() + ": entry count mismatch (header says " +
        std::to_string(total_entries) + ", decoded " +
        std::to_string(decoded) + ")");
  }
  return flat;
}

common::Result<rstar::Node> DecodeNode(const uint8_t* data, uint32_t span,
                                       int dim, size_t page_size,
                                       rstar::PageId expected_id,
                                       const PageName& what) {
  auto flat =
      DecodeFlatNode(data, span, dim, page_size, expected_id, what);
  if (!flat.ok()) return flat.status();
  rstar::Node node;
  node.id = flat->id();
  node.level = flat->level();
  node.entries.reserve(flat->size());
  for (size_t i = 0; i < flat->size(); ++i) {
    rstar::Entry e;
    e.mbr = flat->RectOf(i);
    e.child = flat->child(i);
    e.object = flat->object(i);
    e.count = flat->count(i);
    node.entries.push_back(std::move(e));
  }
  return node;
}

}  // namespace sqp::storage
