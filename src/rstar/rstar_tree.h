// Dynamic R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990) with the
// paper's augmentation: every entry carries the number of data objects in
// its subtree, maintained under inserts, deletes, splits and forced
// reinsertion. Nodes are identified by PageId; a PlacementListener observes
// page creation so a declustering policy can assign pages to disks online
// (paper §2.2).
//
// The tree is an in-memory model of the on-disk structure: node fan-out is
// derived from the configured page size, and all traversals in the search
// layer (`src/core/`) are expressed as explicit page fetches so the
// simulator can charge I/O costs.

#ifndef SQP_RSTAR_RSTAR_TREE_H_
#define SQP_RSTAR_RSTAR_TREE_H_

#include <bitset>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "geometry/metrics.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rstar/config.h"
#include "rstar/node.h"
#include "rstar/placement_listener.h"
#include "rstar/types.h"

namespace sqp::rstar {

// Observes which pages one tree operation touches. Attached around an
// Insert/Delete by the durable write path (storage::MutableIndex), which
// turns the dirty/allocated/freed sets into copy-on-write page versions
// and a write-ahead-log record. Callbacks fire synchronously inside the
// tree operation; implementations must not re-enter the tree.
class MutationRecorder {
 public:
  virtual ~MutationRecorder() = default;

  // A live node's content is about to be (or was just) mutated in place.
  // Fires once per MutableNode access; implementations dedupe.
  virtual void OnNodeDirtied(PageId id) = 0;

  // A fresh node came into existence (also reported to the
  // PlacementListener, which assigns its disk).
  virtual void OnNodeAllocated(PageId id) = 0;

  // A node was dropped and its PageId returned to the free list.
  virtual void OnNodeFreed(PageId id) = 0;
};

class RStarTree {
 public:
  // `listener` may be null (no placement tracking). It must outlive the
  // tree.
  explicit RStarTree(const TreeConfig& config,
                     PlacementListener* listener = nullptr);

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  // Inserts a data point. Duplicate points are allowed; (point, id) pairs
  // should be unique if Delete is to address them unambiguously.
  void Insert(const geometry::Point& p, ObjectId id);

  // Bulk-loads `points` (with parallel `ids`) into an empty tree using the
  // Sort-Tile-Recursive packing of Leutenegger et al. — the "complete
  // reorganization" alternative the paper's dynamic setting rules out
  // (§1); provided for the build-quality ablation and for static corpora.
  // FailedPrecondition if the tree is not empty; InvalidArgument on
  // mismatched input sizes or wrong dimensionality. After a successful
  // bulk load the tree behaves exactly like an incrementally built one
  // (inserts, deletes and all queries are supported).
  common::Status BulkLoad(const std::vector<geometry::Point>& points,
                          const std::vector<ObjectId>& ids);

  // Removes the entry for (p, id). NotFound if no such entry exists.
  common::Status Delete(const geometry::Point& p, ObjectId id);

  // Replaces the tree's contents with a previously serialized structure
  // (storage/OpenIndex). `nodes` is indexed by PageId — null slots become
  // free pages — and `root` must name a live slot. Entry `child` pointers
  // must form a tree over the live slots with uniform leaf depth; parent
  // pointers are recomputed here (they are not part of the page format).
  // On error the tree is left unchanged. Existing pages are dropped
  // WITHOUT notifying the placement listener: callers restore placements
  // out of band (parallel::ParallelRStarTree::Restore).
  common::Status RestoreFrom(PageId root, uint64_t size,
                             std::vector<std::unique_ptr<Node>> nodes);

  // All objects whose point lies in `box` (Definition 1 with L∞-style box
  // region). Appends to `out`.
  void RangeSearch(const geometry::Rect& box,
                   std::vector<ObjectId>* out) const;

  // All objects within Euclidean distance `radius` of `center`
  // (Definition 1 with a hyper-sphere region).
  void BallSearch(const geometry::Point& center, double radius,
                  std::vector<ObjectId>* out) const;

  // --- Structure access (search algorithms & simulator) ---

  const TreeConfig& config() const { return config_; }
  PageId root() const { return root_; }
  const Node& node(PageId id) const;

  // Number of data objects.
  uint64_t size() const { return size_; }

  // Number of live pages.
  size_t NodeCount() const { return live_nodes_; }

  // Levels; a single-leaf tree has height 1.
  int Height() const;

  // Live page ids (for placement audits / relocation experiments).
  std::vector<PageId> LiveNodeIds() const;

  // Verifies all structural invariants: MBR tightness & containment,
  // subtree object counts, uniform leaf depth, fill factors, parent links.
  common::Status Validate() const;

  // Attaches (or, with null, detaches) a recorder that sees every page the
  // following operations dirty, allocate or free. The recorder must
  // outlive its attachment and is typically installed per-operation.
  void SetMutationRecorder(MutationRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  Node& MutableNode(PageId id);
  PageId AllocateNode(int level);
  void FreeNode(PageId id);

  // One flag per level for the forced-reinsert-once rule of a single
  // top-level insert; levels >= 64 are never reinserted.
  using ReinsertedLevels = std::bitset<64>;

  // Chooses the node at `target_level` that should receive `mbr`
  // (R* ChooseSubtree).
  PageId ChooseSubtree(const geometry::Rect& mbr, int target_level);

  // Inserts `e` into a node at `target_level`, handling overflow.
  void InsertEntry(Entry e, int target_level, ReinsertedLevels& reinserted);

  void OverflowTreatment(PageId nid, ReinsertedLevels& reinserted);
  void ForcedReinsert(PageId nid, ReinsertedLevels& reinserted);
  // may_become_supernode: an X-tree-eligible internal node may absorb the
  // overflow instead of splitting when the best split is high-overlap.
  void Split(PageId nid, ReinsertedLevels& reinserted,
             bool may_become_supernode = false);

  // Recomputes this node's MBR/count in its parent entry and repeats up to
  // the root.
  void RefreshUpward(PageId nid);

  // Finds the leaf holding (p, id); kInvalidPage if absent.
  PageId FindLeaf(const geometry::Point& p, ObjectId id) const;

  void CondenseTree(PageId leaf);

  void NotifyCreated(PageId nid);
  common::Status ValidateNode(PageId nid, int expected_level,
                              bool is_root) const;

  TreeConfig config_;
  PlacementListener* listener_;  // not owned, may be null
  MutationRecorder* recorder_ = nullptr;  // not owned, may be null
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<PageId> free_list_;
  PageId root_;
  uint64_t size_ = 0;
  size_t live_nodes_ = 0;

  // Buffers ChooseSubtree and Split reuse across calls, so a steady-state
  // insert allocates nothing for its geometry. Boxes are stored flat,
  // 2*dim floats each: lo[0..dim) then hi[0..dim).
  struct Scratch {
    std::vector<float> boxes;  // ChooseSubtree: the node's MBRs
    std::vector<double> enlarge;
    std::vector<size_t> order;
    std::vector<float> prefix;  // Split: prefix and suffix MBRs
    std::vector<float> suffix;
    std::vector<size_t> axis_orders[2];  // Split: per sort order
    std::vector<size_t> best_order;
  };
  Scratch scratch_;
};

}  // namespace sqp::rstar

#endif  // SQP_RSTAR_RSTAR_TREE_H_
