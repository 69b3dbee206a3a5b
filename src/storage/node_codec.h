// Portable (de)serialization of rstar::Node into fixed-size pages.
//
// Entry record (8*dim + 12 bytes, little-endian):
//   0        f32[dim]  MBR lower corner
//   4*dim    f32[dim]  MBR upper corner
//   8*dim    u64       child PageId (internal) or ObjectId (leaf)
//   8*dim+8  u32       subtree object count (the Lemma 1 augmentation)
//
// A node record occupies `NodeSpan` consecutive pages: a kNode page
// followed by kNodeContinuation pages, each with its own header and
// checksum. The record widens object ids to 64 bits, so a node that fills
// one in-memory page (whose capacity model uses 32-bit pointers, see
// rstar/config.h) may span two storage pages; X-tree supernodes span more.

#ifndef SQP_STORAGE_NODE_CODEC_H_
#define SQP_STORAGE_NODE_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/flat_node.h"
#include "rstar/node.h"
#include "storage/page_format.h"

namespace sqp::storage {

// Entry record footprint for dimensionality `dim`.
size_t EntryRecordBytes(int dim);

// Entry records that fit in one page's payload (>= 1 for any valid
// TreeConfig: page_size >= 256 covers the header plus one record up to
// dim 25; higher dimensionalities require the proportionally larger pages
// such configurations already use).
size_t EntriesPerPage(int dim, size_t page_size);

// Pages needed to serialize `node`.
uint32_t NodeSpan(const rstar::Node& node, int dim, size_t page_size);

// Serializes `node` into NodeSpan sealed pages, appended to `out` as one
// contiguous buffer of NodeSpan * page_size bytes.
void EncodeNode(const rstar::Node& node, int dim, size_t page_size,
                std::vector<uint8_t>* out);

// Decodes a node record from `data` (exactly `span * page_size` bytes)
// straight into a core::FlatNode arena, verifying each page (CheckPage),
// the span/seq chain, that the record is for page `expected_id`, the
// entry-count bounds, every MBR (no NaN, lo <= hi) and every child
// PageId. `what` names the record in error messages. The query engine's
// reader decodes every cache miss this way.
common::Result<core::FlatNode> DecodeFlatNode(const uint8_t* data,
                                              uint32_t span, int dim,
                                              size_t page_size,
                                              rstar::PageId expected_id,
                                              const PageName& what);

// The same decode and checks (it runs DecodeFlatNode), delivered as the
// build-side rstar::Node: FlatNode::FromNode of the result equals
// DecodeFlatNode's bit for bit.
common::Result<rstar::Node> DecodeNode(const uint8_t* data, uint32_t span,
                                       int dim, size_t page_size,
                                       rstar::PageId expected_id,
                                       const PageName& what);

}  // namespace sqp::storage

#endif  // SQP_STORAGE_NODE_CODEC_H_
