#include "rstar/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace sqp::rstar {
namespace {

using geometry::Point;
using geometry::Rect;

// When choosing a subtree at the leaf level, R* computes overlap
// enlargement only for the kChooseSubtreeCandidates entries with least area
// enlargement (Beckmann et al., §4.1) to avoid the quadratic cost at high
// fan-out.
constexpr int kChooseSubtreeCandidates = 32;

// Box arithmetic over raw corner arrays. Each function makes the float
// comparisons and the double operations of its geometry::Rect counterpart
// with the same operands in the same order (and sqp_rstar builds with
// -ffp-contract=off), so every result is bit-identical to the Rect form
// while no Rect is built. Boxes are non-empty (lo <= hi).

// Rect::Union(box, add).Area() - box.Area().
double AreaEnlargement(const float* lo, const float* hi, const float* add_lo,
                       const float* add_hi, int dim) {
  double grown = 1.0;
  double area = 1.0;
  for (int k = 0; k < dim; ++k) {
    const float glo = std::min(lo[k], add_lo[k]);
    const float ghi = std::max(hi[k], add_hi[k]);
    grown *= static_cast<double>(ghi) - static_cast<double>(glo);
    area *= static_cast<double>(hi[k]) - static_cast<double>(lo[k]);
  }
  return grown - area;
}

double AreaEnlargement(const Rect& box, const Rect& add) {
  return AreaEnlargement(box.lo().coords().data(), box.hi().coords().data(),
                         add.lo().coords().data(), add.hi().coords().data(),
                         box.dim());
}

// The flat layout of scratch boxes: 2*dim floats, lo[0..dim) then
// hi[0..dim).
double Area(const float* box, int dim) {
  double area = 1.0;
  for (int k = 0; k < dim; ++k) {
    area *= static_cast<double>(box[dim + k]) - static_cast<double>(box[k]);
  }
  return area;
}

double Margin(const float* box, int dim) {
  double margin = 0.0;
  for (int k = 0; k < dim; ++k) {
    margin += static_cast<double>(box[dim + k]) - static_cast<double>(box[k]);
  }
  return margin;
}

// a.OverlapArea(b).
double OverlapArea(const float* a, const float* b, int dim) {
  double area = 1.0;
  for (int k = 0; k < dim; ++k) {
    const double lo = std::max(a[k], b[k]);
    const double hi = std::min(a[dim + k], b[dim + k]);
    if (hi < lo) return 0.0;
    area *= hi - lo;
  }
  return area;
}

void LoadBox(const Rect& r, int dim, float* box) {
  std::copy_n(r.lo().coords().data(), dim, box);
  std::copy_n(r.hi().coords().data(), dim, box + dim);
}

// box.ExpandToInclude(r).
void ExpandBox(float* box, const Rect& r, int dim) {
  const float* lo = r.lo().coords().data();
  const float* hi = r.hi().coords().data();
  for (int k = 0; k < dim; ++k) {
    box[k] = std::min(box[k], lo[k]);
    box[dim + k] = std::max(box[dim + k], hi[k]);
  }
}

// *out = the tight MBR of `entries`, folded in Node::ComputeMbr's order
// into `out`'s existing storage.
void FoldMbr(const std::vector<Entry>& entries, Rect* out) {
  SQP_DCHECK(!entries.empty());
  *out = entries[0].mbr;
  for (size_t i = 1; i < entries.size(); ++i) {
    out->ExpandToInclude(entries[i].mbr);
  }
}

}  // namespace

RStarTree::RStarTree(const TreeConfig& config, PlacementListener* listener)
    : config_(config), listener_(listener), root_(kInvalidPage) {
  config_.Validate();
  root_ = AllocateNode(/*level=*/0);
  NotifyCreated(root_);
}

const Node& RStarTree::node(PageId id) const {
  SQP_CHECK(id < nodes_.size() && nodes_[id] != nullptr);
  return *nodes_[id];
}

Node& RStarTree::MutableNode(PageId id) {
  SQP_CHECK(id < nodes_.size() && nodes_[id] != nullptr);
  if (recorder_ != nullptr) recorder_->OnNodeDirtied(id);
  return *nodes_[id];
}

PageId RStarTree::AllocateNode(int level) {
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = std::make_unique<Node>();
  } else {
    id = static_cast<PageId>(nodes_.size());
    nodes_.push_back(std::make_unique<Node>());
  }
  Node& n = *nodes_[id];
  n.id = id;
  n.level = level;
  n.parent = kInvalidPage;
  ++live_nodes_;
  if (recorder_ != nullptr) recorder_->OnNodeAllocated(id);
  return id;
}

void RStarTree::FreeNode(PageId id) {
  SQP_CHECK(id < nodes_.size() && nodes_[id] != nullptr);
  nodes_[id].reset();
  free_list_.push_back(id);
  --live_nodes_;
  if (recorder_ != nullptr) recorder_->OnNodeFreed(id);
  if (listener_ != nullptr) listener_->OnNodeFreed(id);
}

common::Status RStarTree::RestoreFrom(
    PageId root, uint64_t size, std::vector<std::unique_ptr<Node>> nodes) {
  if (nodes.empty() || root >= nodes.size() || nodes[root] == nullptr) {
    return common::Status::InvalidArgument("restore: root page not live");
  }
  // Pass 1: per-node sanity, recompute parent links from child pointers.
  for (PageId id = 0; id < nodes.size(); ++id) {
    if (nodes[id] == nullptr) continue;
    Node& n = *nodes[id];
    if (n.id != id) {
      return common::Status::InvalidArgument(
          "restore: node stored under page " + std::to_string(id) +
          " claims id " + std::to_string(n.id));
    }
    n.parent = kInvalidPage;
  }
  for (PageId id = 0; id < nodes.size(); ++id) {
    if (nodes[id] == nullptr || nodes[id]->IsLeaf()) continue;
    for (const Entry& e : nodes[id]->entries) {
      if (e.child >= nodes.size() || nodes[e.child] == nullptr) {
        return common::Status::InvalidArgument(
            "restore: dangling child pointer " + std::to_string(e.child));
      }
      Node& child = *nodes[e.child];
      if (child.level != nodes[id]->level - 1) {
        return common::Status::InvalidArgument(
            "restore: child level mismatch at page " +
            std::to_string(e.child));
      }
      if (child.parent != kInvalidPage) {
        return common::Status::InvalidArgument(
            "restore: page " + std::to_string(e.child) +
            " referenced by two parents");
      }
      child.parent = id;
    }
  }
  size_t live = 0;
  for (PageId id = 0; id < nodes.size(); ++id) {
    if (nodes[id] == nullptr) continue;
    ++live;
    if (id != root && nodes[id]->parent == kInvalidPage) {
      return common::Status::InvalidArgument(
          "restore: orphan page " + std::to_string(id) +
          " unreachable from root");
    }
  }
  if (nodes[root]->parent != kInvalidPage) {
    return common::Status::InvalidArgument("restore: root has a parent");
  }

  // Commit. Free slots go on the free list high-id-first so future
  // allocations reuse low ids first, as a freshly grown tree would.
  nodes_ = std::move(nodes);
  root_ = root;
  size_ = size;
  live_nodes_ = live;
  free_list_.clear();
  for (PageId id = static_cast<PageId>(nodes_.size()); id-- > 0;) {
    if (nodes_[id] == nullptr) free_list_.push_back(id);
  }
  return common::Status::OK();
}

int RStarTree::Height() const { return node(root_).level + 1; }

std::vector<PageId> RStarTree::LiveNodeIds() const {
  std::vector<PageId> ids;
  ids.reserve(live_nodes_);
  for (PageId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] != nullptr) ids.push_back(i);
  }
  return ids;
}

void RStarTree::NotifyCreated(PageId nid) {
  if (listener_ == nullptr) return;
  const Node& n = node(nid);
  std::vector<std::pair<PageId, Rect>> siblings;
  if (n.parent != kInvalidPage) {
    const Node& p = node(n.parent);
    for (const Entry& e : p.entries) {
      if (e.child != nid) siblings.emplace_back(e.child, e.mbr);
    }
  }
  const Rect mbr =
      n.entries.empty() ? Rect::Empty(config_.dim) : n.ComputeMbr();
  listener_->OnNodeCreated(nid, n.level, mbr, siblings);
}

// --- Insertion ----------------------------------------------------------

void RStarTree::Insert(const Point& p, ObjectId id) {
  SQP_CHECK(p.dim() == config_.dim);
  ReinsertedLevels reinserted;
  InsertEntry(Entry::ForObject(p, id), /*target_level=*/0, reinserted);
  ++size_;
}

PageId RStarTree::ChooseSubtree(const Rect& mbr, int target_level) {
  const int dim = config_.dim;
  const float* add_lo = mbr.lo().coords().data();
  const float* add_hi = mbr.hi().coords().data();
  PageId nid = root_;
  while (node(nid).level > target_level) {
    const Node& n = node(nid);
    SQP_DCHECK(!n.entries.empty());
    size_t best = 0;

    if (n.level == 1) {
      // Children are leaves: minimize overlap enlargement, ties by area
      // enlargement, then by area. Restrict the quadratic overlap scan to
      // the candidates with least area enlargement.
      const size_t count = n.entries.size();
      const size_t width = 2 * static_cast<size_t>(dim);
      std::vector<float>& boxes = scratch_.boxes;
      std::vector<double>& enlarge = scratch_.enlarge;
      std::vector<size_t>& order = scratch_.order;
      // One extra slot past the node's boxes holds the grown candidate.
      boxes.resize((count + 1) * width);
      enlarge.resize(count);
      order.resize(count);
      for (size_t i = 0; i < count; ++i) {
        float* box = &boxes[i * width];
        LoadBox(n.entries[i].mbr, dim, box);
        enlarge[i] = AreaEnlargement(box, box + dim, add_lo, add_hi, dim);
      }
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return enlarge[a] < enlarge[b];
      });
      const size_t candidates =
          std::min(count, static_cast<size_t>(kChooseSubtreeCandidates));

      // Three exact shortcuts; each leaves the chosen entry unchanged.
      // The overlap delta of candidate i sums, over siblings j,
      // overlap(grown_i, j) - overlap(i, j). Since grown_i contains i and
      // float->double widening, subtraction and multiplication all round
      // monotonically, every term is >= 0, so every delta is >= 0.
      // (1) A sibling whose overlap with grown_i is 0 has overlap 0 with
      //     i as well: its term is exactly 0 and is skipped.
      // (2) If i already contains the new box (tested with the very
      //     comparisons std::min/std::max make), grown_i equals i bit for
      //     bit and every term is x - x = 0: the delta is 0 unscanned.
      // (3) Once the best delta is 0, the minimum, only a candidate with
      //     equal area enlargement can still win (on area), and the
      //     candidates come in ascending enlargement: stop at the first
      //     larger one.
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      float* grown = &boxes[count * width];
      for (size_t ci = 0; ci < candidates; ++ci) {
        const size_t i = order[ci];
        if (best_overlap == 0.0 && enlarge[i] > best_enlarge) break;
        const float* box = &boxes[i * width];
        bool contains = true;
        for (int k = 0; k < dim; ++k) {
          grown[k] = std::min(box[k], add_lo[k]);
          grown[dim + k] = std::max(box[dim + k], add_hi[k]);
          contains = contains && !(add_lo[k] < box[k]) &&
                     !(box[dim + k] < add_hi[k]);
        }
        double overlap_delta = 0.0;
        if (!contains) {
          for (size_t j = 0; j < count; ++j) {
            if (j == i) continue;
            const float* other = &boxes[j * width];
            const double grown_overlap = OverlapArea(grown, other, dim);
            if (grown_overlap == 0.0) continue;
            overlap_delta += grown_overlap - OverlapArea(box, other, dim);
          }
        }
        const double area = Area(box, dim);
        if (overlap_delta < best_overlap ||
            (overlap_delta == best_overlap && enlarge[i] < best_enlarge) ||
            (overlap_delta == best_overlap && enlarge[i] == best_enlarge &&
             area < best_area)) {
          best_overlap = overlap_delta;
          best_enlarge = enlarge[i];
          best_area = area;
          best = i;
        }
      }
    } else {
      // Children are internal: minimize area enlargement, ties by area.
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n.entries.size(); ++i) {
        const double enl = AreaEnlargement(n.entries[i].mbr, mbr);
        const double area = n.entries[i].mbr.Area();
        if (enl < best_enlarge ||
            (enl == best_enlarge && area < best_area)) {
          best_enlarge = enl;
          best_area = area;
          best = i;
        }
      }
    }
    nid = n.entries[best].child;
  }
  return nid;
}

void RStarTree::InsertEntry(Entry e, int target_level,
                            ReinsertedLevels& reinserted) {
  SQP_CHECK(target_level <= node(root_).level);
  const PageId nid = ChooseSubtree(e.mbr, target_level);
  Node& n = MutableNode(nid);
  SQP_DCHECK(n.level == target_level);
  const PageId child = e.child;
  n.entries.push_back(std::move(e));
  if (child != kInvalidPage) MutableNode(child).parent = nid;
  RefreshUpward(nid);
  if (static_cast<int>(n.entries.size()) <= config_.MaxEntries()) return;
  if (config_.allow_supernodes && !n.IsLeaf()) {
    // X-tree path: split only when low-overlap groups exist or the
    // supernode cap is reached; forced reinsertion is not applied to
    // directory supernodes.
    const bool at_cap = static_cast<int>(n.entries.size()) >
                        config_.MaxEntriesFor(/*is_leaf=*/false);
    Split(nid, reinserted, /*may_become_supernode=*/!at_cap);
    return;
  }
  OverflowTreatment(nid, reinserted);
}

void RStarTree::OverflowTreatment(PageId nid, ReinsertedLevels& reinserted) {
  const Node& n = node(nid);
  const size_t lvl = static_cast<size_t>(n.level);
  if (nid != root_ && config_.forced_reinsert && lvl < reinserted.size() &&
      !reinserted[lvl]) {
    reinserted[lvl] = true;
    ForcedReinsert(nid, reinserted);
  } else {
    Split(nid, reinserted);
  }
}

void RStarTree::ForcedReinsert(PageId nid, ReinsertedLevels& reinserted) {
  Node& n = MutableNode(nid);
  const int level = n.level;
  const Rect node_mbr = n.ComputeMbr();
  const int p = config_.ReinsertCount();

  // Order entries by distance between their center and the node center,
  // farthest first.
  std::vector<size_t> order(n.entries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> dist(n.entries.size());
  for (size_t i = 0; i < n.entries.size(); ++i) {
    dist[i] = Rect::CenterDistanceSq(n.entries[i].mbr, node_mbr);
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return dist[a] > dist[b]; });

  std::vector<Entry> evicted;
  evicted.reserve(static_cast<size_t>(p));
  std::vector<bool> remove(n.entries.size(), false);
  for (int i = 0; i < p; ++i) {
    evicted.push_back(std::move(n.entries[order[static_cast<size_t>(i)]]));
    remove[order[static_cast<size_t>(i)]] = true;
  }
  std::vector<Entry> kept;
  kept.reserve(n.entries.size() - evicted.size());
  for (size_t i = 0; i < n.entries.size(); ++i) {
    if (!remove[i]) kept.push_back(std::move(n.entries[i]));
  }
  n.entries = std::move(kept);
  RefreshUpward(nid);

  // Close reinsert: nearest evicted entries first (Beckmann et al. found
  // this superior to far reinsert).
  for (auto it = evicted.rbegin(); it != evicted.rend(); ++it) {
    InsertEntry(std::move(*it), level, reinserted);
  }
}

void RStarTree::Split(PageId nid, ReinsertedLevels& reinserted,
                      bool may_become_supernode) {
  Node& n = MutableNode(nid);
  const int level = n.level;
  const int m = config_.MinEntries();
  const int total = static_cast<int>(n.entries.size());
  SQP_CHECK(total >= 2 * m);

  // R* split: choose the axis minimizing the summed margin over all
  // distributions, then the distribution with least overlap (ties: least
  // combined area). Both lower-value and upper-value sort orders are
  // considered on each axis.
  const int k_max = total - 2 * m + 1;  // distributions per sort order
  SQP_CHECK(k_max >= 1);

  const int dim = config_.dim;
  const size_t width = 2 * static_cast<size_t>(dim);
  const size_t count = n.entries.size();
  std::vector<float>& prefix = scratch_.prefix;
  std::vector<float>& suffix = scratch_.suffix;
  prefix.resize(count * width);
  suffix.resize(count * width);
  std::vector<size_t>& best_order = scratch_.best_order;
  int best_split_at = 0;  // first `best_split_at` entries -> group 1
  int best_axis = -1;
  double best_axis_margin = std::numeric_limits<double>::infinity();

  for (int axis = 0; axis < dim; ++axis) {
    double axis_margin = 0.0;
    double axis_best_overlap = std::numeric_limits<double>::infinity();
    double axis_best_area = std::numeric_limits<double>::infinity();
    int axis_best_sort = -1;
    int axis_best_split_at = 0;

    // sort_by: 0 = lower coordinate, 1 = upper coordinate.
    for (int sort_by = 0; sort_by < 2; ++sort_by) {
      std::vector<size_t>& order = scratch_.axis_orders[sort_by];
      order.resize(count);
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Rect& ra = n.entries[a].mbr;
        const Rect& rb = n.entries[b].mbr;
        const double ka = sort_by == 0 ? ra.lo()[axis] : ra.hi()[axis];
        const double kb = sort_by == 0 ? rb.lo()[axis] : rb.hi()[axis];
        if (ka != kb) return ka < kb;
        // Tie-break on the other bound for determinism.
        const double ta = sort_by == 0 ? ra.hi()[axis] : ra.lo()[axis];
        const double tb = sort_by == 0 ? rb.hi()[axis] : rb.lo()[axis];
        return ta < tb;
      });

      // Prefix/suffix MBRs make each distribution O(d) to evaluate.
      LoadBox(n.entries[order[0]].mbr, dim, &prefix[0]);
      for (size_t i = 1; i < count; ++i) {
        float* box = &prefix[i * width];
        std::copy_n(box - width, width, box);
        ExpandBox(box, n.entries[order[i]].mbr, dim);
      }
      LoadBox(n.entries[order.back()].mbr, dim, &suffix[(count - 1) * width]);
      for (size_t i = count - 1; i-- > 0;) {
        float* box = &suffix[i * width];
        std::copy_n(box + width, width, box);
        ExpandBox(box, n.entries[order[i]].mbr, dim);
      }

      for (int k = 0; k < k_max; ++k) {
        const int split_at = m + k;  // group 1 size
        const float* g1 = &prefix[static_cast<size_t>(split_at - 1) * width];
        const float* g2 = &suffix[static_cast<size_t>(split_at) * width];
        axis_margin += Margin(g1, dim) + Margin(g2, dim);
        const double overlap = OverlapArea(g1, g2, dim);
        const double area = Area(g1, dim) + Area(g2, dim);
        if (overlap < axis_best_overlap ||
            (overlap == axis_best_overlap && area < axis_best_area)) {
          axis_best_overlap = overlap;
          axis_best_area = area;
          axis_best_sort = sort_by;
          axis_best_split_at = split_at;
        }
      }
    }

    if (axis_margin < best_axis_margin) {
      SQP_CHECK(axis_best_sort >= 0);
      best_axis_margin = axis_margin;
      best_axis = axis;
      best_order.swap(scratch_.axis_orders[axis_best_sort]);
      best_split_at = axis_best_split_at;
    }
  }
  SQP_CHECK(best_axis >= 0);
  const size_t split_at = static_cast<size_t>(best_split_at);

  if (may_become_supernode) {
    // X-tree supernode test: if even the best distribution produces
    // heavily overlapping groups (Jaccard ratio of the group MBRs above
    // the threshold), keep the node as a multi-page supernode. The
    // prefix/suffix boxes belong to the last order evaluated, so the
    // groups are folded afresh, in the best order.
    float* g1 = &prefix[0];
    float* g2 = &suffix[0];
    LoadBox(n.entries[best_order[0]].mbr, dim, g1);
    for (size_t i = 1; i < split_at; ++i) {
      ExpandBox(g1, n.entries[best_order[i]].mbr, dim);
    }
    LoadBox(n.entries[best_order[split_at]].mbr, dim, g2);
    for (size_t i = split_at + 1; i < count; ++i) {
      ExpandBox(g2, n.entries[best_order[i]].mbr, dim);
    }
    const double overlap = OverlapArea(g1, g2, dim);
    const double union_area = Area(g1, dim) + Area(g2, dim) - overlap;
    const double jaccard = union_area > 0.0 ? overlap / union_area : 1.0;
    if (jaccard > config_.supernode_overlap_threshold) {
      return;  // the node absorbs the overflow
    }
  }

  // Materialize the two groups.
  std::vector<Entry> group1, group2;
  group1.reserve(split_at);
  group2.reserve(count - split_at);
  for (size_t i = 0; i < count; ++i) {
    Entry& e = n.entries[best_order[i]];
    if (i < split_at) {
      group1.push_back(std::move(e));
    } else {
      group2.push_back(std::move(e));
    }
  }

  n.entries = std::move(group1);
  const PageId new_id = AllocateNode(level);
  Node& nn = MutableNode(new_id);
  nn.entries = std::move(group2);
  for (const Entry& e : nn.entries) {
    if (e.child != kInvalidPage) MutableNode(e.child).parent = new_id;
  }

  if (nid == root_) {
    const PageId new_root = AllocateNode(level + 1);
    Node& r = MutableNode(new_root);
    Node& old = MutableNode(nid);
    r.entries.push_back(Entry::ForChild(
        old.ComputeMbr(), nid, static_cast<uint32_t>(old.ObjectCount())));
    r.entries.push_back(Entry::ForChild(
        nn.ComputeMbr(), new_id, static_cast<uint32_t>(nn.ObjectCount())));
    old.parent = new_root;
    nn.parent = new_root;
    root_ = new_root;
    NotifyCreated(new_root);
    NotifyCreated(new_id);
    return;
  }

  const PageId parent_id = n.parent;
  Node& parent = MutableNode(parent_id);
  nn.parent = parent_id;
  parent.entries.push_back(Entry::ForChild(
      nn.ComputeMbr(), new_id, static_cast<uint32_t>(nn.ObjectCount())));
  RefreshUpward(nid);
  NotifyCreated(new_id);
  if (static_cast<int>(parent.entries.size()) > config_.MaxEntries()) {
    OverflowTreatment(parent_id, reinserted);
  }
}

void RStarTree::RefreshUpward(PageId nid) {
  PageId cur = nid;
  while (node(cur).parent != kInvalidPage) {
    const Node& n = node(cur);
    Node& parent = MutableNode(n.parent);
    bool found = false;
    for (Entry& e : parent.entries) {
      if (e.child == cur) {
        FoldMbr(n.entries, &e.mbr);
        e.count = static_cast<uint32_t>(n.ObjectCount());
        found = true;
        break;
      }
    }
    SQP_CHECK(found);
    cur = n.parent;
  }
}

// --- Deletion -----------------------------------------------------------

common::Status RStarTree::Delete(const Point& p, ObjectId id) {
  SQP_CHECK(p.dim() == config_.dim);
  const PageId leaf = FindLeaf(p, id);
  if (leaf == kInvalidPage) {
    return common::Status::NotFound("object not in tree");
  }
  Node& n = MutableNode(leaf);
  const Rect pr = Rect::ForPoint(p);
  bool removed = false;
  for (size_t i = 0; i < n.entries.size(); ++i) {
    if (n.entries[i].object == id && n.entries[i].mbr == pr) {
      n.entries.erase(n.entries.begin() +
                      static_cast<std::ptrdiff_t>(i));
      removed = true;
      break;
    }
  }
  SQP_CHECK(removed);
  --size_;
  if (!n.entries.empty()) RefreshUpward(leaf);
  CondenseTree(leaf);

  // Shrink the root while it is an internal node with a single child.
  while (node(root_).level > 0 && node(root_).entries.size() == 1) {
    const PageId child = node(root_).entries[0].child;
    const PageId old_root = root_;
    MutableNode(child).parent = kInvalidPage;
    root_ = child;
    FreeNode(old_root);
  }
  return common::Status::OK();
}

PageId RStarTree::FindLeaf(const Point& p, ObjectId id) const {
  const Rect pr = Rect::ForPoint(p);
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    const PageId nid = stack.back();
    stack.pop_back();
    const Node& n = node(nid);
    if (n.IsLeaf()) {
      for (const Entry& e : n.entries) {
        if (e.object == id && e.mbr == pr) return nid;
      }
    } else {
      for (const Entry& e : n.entries) {
        if (e.mbr.Contains(p)) stack.push_back(e.child);
      }
    }
  }
  return kInvalidPage;
}

void RStarTree::CondenseTree(PageId leaf) {
  // Walk from the leaf to the root, unlinking underfull nodes and stashing
  // their entries (with the level they must return to).
  struct Orphan {
    Entry entry;
    int level;
  };
  std::vector<Orphan> orphans;

  PageId cur = leaf;
  while (cur != root_) {
    Node& n = MutableNode(cur);
    const PageId parent_id = n.parent;
    if (static_cast<int>(n.entries.size()) < config_.MinEntries()) {
      Node& parent = MutableNode(parent_id);
      for (size_t i = 0; i < parent.entries.size(); ++i) {
        if (parent.entries[i].child == cur) {
          parent.entries.erase(parent.entries.begin() +
                               static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      for (const Entry& e : n.entries) {
        orphans.push_back({e, n.level});
      }
      FreeNode(cur);
    } else {
      RefreshUpward(cur);
    }
    cur = parent_id;
  }

  for (Orphan& o : orphans) {
    ReinsertedLevels reinserted;
    InsertEntry(std::move(o.entry), o.level, reinserted);
  }
}

// --- Queries ------------------------------------------------------------

void RStarTree::RangeSearch(const Rect& box, std::vector<ObjectId>* out) const {
  SQP_CHECK(out != nullptr);
  SQP_CHECK(box.dim() == config_.dim);
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (const Entry& e : n.entries) {
      if (!box.Intersects(e.mbr)) continue;
      if (n.IsLeaf()) {
        out->push_back(e.object);
      } else {
        stack.push_back(e.child);
      }
    }
  }
}

void RStarTree::BallSearch(const Point& center, double radius,
                           std::vector<ObjectId>* out) const {
  SQP_CHECK(out != nullptr);
  SQP_CHECK(center.dim() == config_.dim);
  SQP_CHECK(radius >= 0.0);
  const double r_sq = radius * radius;
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (const Entry& e : n.entries) {
      if (geometry::MinDistSq(center, e.mbr) > r_sq) continue;
      if (n.IsLeaf()) {
        out->push_back(e.object);
      } else {
        stack.push_back(e.child);
      }
    }
  }
}

// --- Validation ---------------------------------------------------------

common::Status RStarTree::ValidateNode(PageId nid, int expected_level,
                                       bool is_root) const {
  const Node& n = node(nid);
  if (n.level != expected_level) {
    return common::Status::Internal("level mismatch");
  }
  const int count = static_cast<int>(n.entries.size());
  if (count > config_.MaxEntriesFor(n.IsLeaf())) {
    return common::Status::Internal("node overfull");
  }
  if (is_root) {
    if (n.level > 0 && count < 2) {
      return common::Status::Internal("internal root with < 2 entries");
    }
  } else if (count < config_.MinEntries()) {
    return common::Status::Internal("node underfull");
  }

  for (const Entry& e : n.entries) {
    if (n.IsLeaf()) {
      if (e.object == kInvalidObject || e.count != 1) {
        return common::Status::Internal("bad leaf entry");
      }
      if (!(e.mbr.lo() == e.mbr.hi())) {
        return common::Status::Internal("leaf entry MBR not a point");
      }
    } else {
      const Node& child = node(e.child);
      if (child.parent != nid) {
        return common::Status::Internal("bad parent link");
      }
      if (!(e.mbr == child.ComputeMbr())) {
        return common::Status::Internal("parent entry MBR not tight");
      }
      if (e.count != child.ObjectCount()) {
        return common::Status::Internal("subtree count mismatch");
      }
      SQP_RETURN_IF_ERROR(ValidateNode(e.child, expected_level - 1, false));
    }
  }
  return common::Status::OK();
}

common::Status RStarTree::Validate() const {
  const Node& r = node(root_);
  SQP_RETURN_IF_ERROR(ValidateNode(root_, r.level, /*is_root=*/true));
  if (r.ObjectCount() != size_ && !(size_ == 0 && r.entries.empty())) {
    return common::Status::Internal("tree size mismatch");
  }
  return common::Status::OK();
}

}  // namespace sqp::rstar
