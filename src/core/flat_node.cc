#include "core/flat_node.h"

#include <utility>

namespace sqp::core {

FlatNode& FlatNode::operator=(FlatNode&& other) noexcept {
  id_ = other.id_;
  level_ = other.level_;
  dim_ = other.dim_;
  n_ = std::exchange(other.n_, 0);
  objects_offset_ = other.objects_offset_;
  children_offset_ = other.children_offset_;
  counts_offset_ = other.counts_offset_;
  arena_ = std::move(other.arena_);
  return *this;
}

FlatNode FlatNode::Allocate(rstar::PageId id, int level, int dim, size_t n) {
  SQP_CHECK(dim >= 1);
  FlatNode f;
  f.id_ = id;
  f.level_ = level;
  f.dim_ = dim;
  f.n_ = n;
  if (n == 0) return f;

  const size_t d = static_cast<size_t>(dim);
  const size_t plane_bytes = d * n * sizeof(float);
  f.objects_offset_ = 2 * d * sizeof(const float*);
  const size_t lo_offset = f.objects_offset_ + n * sizeof(rstar::ObjectId);
  f.children_offset_ = lo_offset + 2 * plane_bytes;
  f.counts_offset_ = f.children_offset_ + n * sizeof(rstar::PageId);
  const size_t total = f.counts_offset_ + n * sizeof(uint32_t);
  f.arena_ = std::make_unique_for_overwrite<std::byte[]>(total);

  auto* planes = reinterpret_cast<const float**>(f.arena_.get());
  for (int p = 0; p < 2 * dim; ++p) {
    planes[p] = f.PlaneAt(f.arena_.get() + lo_offset, p);
  }
  return f;
}

FlatNode FlatNode::FromNode(const rstar::Node& node, int dim) {
  FlatNode f = Allocate(node.id, node.level, dim, node.entries.size());
  const size_t n = f.size();
  if (n == 0) return f;

  rstar::ObjectId* objects = f.mutable_objects();
  float* lo = f.mutable_lo_plane(0);  // plane j starts at lo + j * n
  float* hi = f.mutable_hi_plane(0);
  rstar::PageId* children = f.mutable_children();
  uint32_t* counts = f.mutable_counts();
  for (size_t i = 0; i < n; ++i) {
    const rstar::Entry& e = node.entries[i];
    SQP_DCHECK(e.mbr.dim() == dim);
    objects[i] = e.object;
    children[i] = e.child;
    counts[i] = e.count;
    const geometry::Point& elo = e.mbr.lo();
    const geometry::Point& ehi = e.mbr.hi();
    for (int j = 0; j < dim; ++j) {
      lo[static_cast<size_t>(j) * n + i] = elo[j];
      hi[static_cast<size_t>(j) * n + i] = ehi[j];
    }
  }
  return f;
}

geometry::Rect FlatNode::RectOf(size_t i) const {
  SQP_DCHECK(i < n_);
  std::vector<geometry::Coord> lo(static_cast<size_t>(dim_));
  std::vector<geometry::Coord> hi(static_cast<size_t>(dim_));
  for (int j = 0; j < dim_; ++j) {
    lo[static_cast<size_t>(j)] = this->lo(j, i);
    hi[static_cast<size_t>(j)] = this->hi(j, i);
  }
  return geometry::Rect(geometry::Point::FromVector(std::move(lo)),
                        geometry::Point::FromVector(std::move(hi)));
}

}  // namespace sqp::core
