// Structure-of-arrays form of a decoded tree node, built once (at decode
// or conversion time) into a single arena allocation.
//
// rstar::Node stores a vector of Entry structs, each carrying a Rect made
// of two heap-allocated Points — three indirections and ~2 allocations per
// entry, which is what the per-node hot loops of the search algorithms
// used to chase. FlatNode lays the same data out plane-major: coordinate j
// of every entry's lower corner is one contiguous float run (same for the
// upper corners), followed by the child PageIds, subtree counts and object
// ids. The geometry/kernels.h batch kernels consume exactly this view and
// compute a whole node's MinDist/MinMaxDist/MaxDist in one pass.
//
// The executors (core::RunToCompletion, sim::QueryEngine,
// exec::ParallelQueryEngine) all deliver FlatNodes to the algorithms via
// core::FetchedPage; the exec page cache stores them directly, so a page
// is converted once per decode, not once per visit.

#ifndef SQP_CORE_FLAT_NODE_H_
#define SQP_CORE_FLAT_NODE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "geometry/rect.h"
#include "rstar/node.h"
#include "rstar/rstar_tree.h"
#include "rstar/types.h"

namespace sqp::core {

class FlatNode {
 public:
  FlatNode() = default;
  FlatNode(FlatNode&& other) noexcept { *this = std::move(other); }
  FlatNode& operator=(FlatNode&& other) noexcept;
  FlatNode(const FlatNode&) = delete;
  FlatNode& operator=(const FlatNode&) = delete;

  // Converts a decoded node. `dim` is the tree's dimensionality.
  static FlatNode FromNode(const rstar::Node& node, int dim);

  // Allocate-and-fill construction: sizes the one arena for `n` entries of
  // dimensionality `dim` and leaves every entry slot for the caller to
  // write through the mutable_* views before the node is read. FromNode
  // and the page decoder (storage::DecodeFlatNode) both build this way.
  static FlatNode Allocate(rstar::PageId id, int level, int dim, size_t n);
  rstar::ObjectId* mutable_objects() {
    return reinterpret_cast<rstar::ObjectId*>(arena_.get() + objects_offset_);
  }
  float* mutable_lo_plane(int j) { return PlaneAt(objects_end(), j); }
  float* mutable_hi_plane(int j) { return PlaneAt(objects_end(), dim_ + j); }
  rstar::PageId* mutable_children() {
    return reinterpret_cast<rstar::PageId*>(arena_.get() + children_offset_);
  }
  uint32_t* mutable_counts() {
    return reinterpret_cast<uint32_t*>(arena_.get() + counts_offset_);
  }

  rstar::PageId id() const { return id_; }
  int level() const { return level_; }
  bool IsLeaf() const { return level_ == 0; }
  int dim() const { return dim_; }
  // Number of entries.
  size_t size() const { return n_; }

  rstar::ObjectId object(size_t i) const { return objects()[i]; }
  rstar::PageId child(size_t i) const { return children()[i]; }
  uint32_t count(size_t i) const { return counts()[i]; }
  const uint32_t* counts_data() const { return counts(); }

  float lo(int j, size_t i) const { return lo_planes()[j][i]; }
  float hi(int j, size_t i) const { return hi_planes()[j][i]; }

  // Plane-major views for the batch kernels: element j points at size()
  // contiguous floats holding coordinate j of every entry.
  const float* const* lo_planes() const {
    return reinterpret_cast<const float* const*>(arena_.get());
  }
  const float* const* hi_planes() const {
    return n_ == 0 ? nullptr : lo_planes() + dim_;
  }

  // Entry i's MBR as a Rect (allocates; convenience for slow paths/tests).
  geometry::Rect RectOf(size_t i) const;

 private:
  const rstar::ObjectId* objects() const {
    return reinterpret_cast<const rstar::ObjectId*>(arena_.get() +
                                                    objects_offset_);
  }
  const rstar::PageId* children() const {
    return reinterpret_cast<const rstar::PageId*>(
        arena_.get() + children_offset_);
  }
  const uint32_t* counts() const {
    return reinterpret_cast<const uint32_t*>(arena_.get() + counts_offset_);
  }
  std::byte* objects_end() {
    return arena_.get() + objects_offset_ + n_ * sizeof(rstar::ObjectId);
  }
  // Plane `p` of the 2*dim planes that start at `base` (lo then hi).
  float* PlaneAt(std::byte* base, int p) {
    return reinterpret_cast<float*>(base) + static_cast<size_t>(p) * n_;
  }

  rstar::PageId id_ = rstar::kInvalidPage;
  int level_ = 0;
  int dim_ = 0;
  size_t n_ = 0;
  size_t objects_offset_ = 0;
  size_t children_offset_ = 0;
  size_t counts_offset_ = 0;
  // One allocation (none when n == 0). Layout:
  //   [lo plane ptrs x dim][hi plane ptrs x dim][objects u64 x n]
  //   [lo f32 x dim*n][hi f32 x dim*n][children u32 x n][counts u32 x n].
  // The plane pointers point into the same arena, so they stay valid
  // when the node is moved.
  std::unique_ptr<std::byte[]> arena_;
};

// Reusable plane-major accumulator for algorithms that pool the entries of
// several fetched nodes before classifying them (CRSS, FPSS). Appending a
// node is a per-plane memcpy; the backing vectors keep their capacity
// across Clear(), so steady-state steps allocate nothing.
class EntryPool {
 public:
  explicit EntryPool(int dim)
      : dim_(dim), lo_(static_cast<size_t>(dim)),
        hi_(static_cast<size_t>(dim)) {
    SQP_CHECK(dim >= 1);
  }

  void Clear() {
    for (auto& p : lo_) p.clear();
    for (auto& p : hi_) p.clear();
    children_.clear();
    counts_.clear();
  }

  void AppendAll(const FlatNode& node) {
    SQP_DCHECK(node.dim() == dim_);
    const size_t n = node.size();
    for (int j = 0; j < dim_; ++j) {
      const size_t sj = static_cast<size_t>(j);
      lo_[sj].insert(lo_[sj].end(), node.lo_planes()[j],
                     node.lo_planes()[j] + n);
      hi_[sj].insert(hi_[sj].end(), node.hi_planes()[j],
                     node.hi_planes()[j] + n);
    }
    for (size_t i = 0; i < n; ++i) {
      children_.push_back(node.child(i));
      counts_.push_back(node.count(i));
    }
  }

  size_t size() const { return children_.size(); }
  int dim() const { return dim_; }
  rstar::PageId child(size_t i) const { return children_[i]; }
  uint32_t count(size_t i) const { return counts_[i]; }
  const uint32_t* counts_data() const { return counts_.data(); }

  const float* const* lo_planes() {
    RefreshPlanePtrs(lo_, &lo_ptrs_);
    return lo_ptrs_.data();
  }
  const float* const* hi_planes() {
    RefreshPlanePtrs(hi_, &hi_ptrs_);
    return hi_ptrs_.data();
  }

 private:
  static void RefreshPlanePtrs(const std::vector<std::vector<float>>& planes,
                               std::vector<const float*>* ptrs) {
    ptrs->resize(planes.size());
    for (size_t j = 0; j < planes.size(); ++j) (*ptrs)[j] = planes[j].data();
  }

  int dim_;
  std::vector<std::vector<float>> lo_;  // lo_[j] = plane j
  std::vector<std::vector<float>> hi_;
  std::vector<rstar::PageId> children_;
  std::vector<uint32_t> counts_;
  std::vector<const float*> lo_ptrs_;
  std::vector<const float*> hi_ptrs_;
};

// Memoizing Node -> FlatNode converter over an in-memory tree: each page
// is converted on first request and served from the map afterwards. Used
// by TreePageSource and by tests that hand-feed pages to an algorithm.
// Not thread-safe; conversions reflect the tree at first-request time.
class FlatNodeMap {
 public:
  explicit FlatNodeMap(const rstar::RStarTree& tree) : tree_(tree) {}

  const FlatNode& Get(rstar::PageId id) {
    auto it = map_.find(id);
    if (it == map_.end()) {
      it = map_.emplace(id, FlatNode::FromNode(tree_.node(id),
                                               tree_.config().dim))
               .first;
    }
    return it->second;
  }

 private:
  const rstar::RStarTree& tree_;
  std::unordered_map<rstar::PageId, FlatNode> map_;
};

}  // namespace sqp::core

#endif  // SQP_CORE_FLAT_NODE_H_
