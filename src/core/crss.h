// CRSS — Candidate Reduction Similarity Search (paper §3.3, the proposed
// algorithm).
//
// CRSS steers between BBSS (no intra-query parallelism) and FPSS
// (uncontrolled parallelism) by classifying the entries of fetched nodes
// against a threshold distance Dth:
//
//   rejected   MinDist(P,R)    >  Dth   — cannot contain an answer;
//   active     MinMaxDist(P,R) <= Dth   — guaranteed useful, fetch now;
//   candidate  otherwise               — deferred to the candidate stack.
//
// Dth starts as the Lemma 1 bound computed from subtree object counts
// (ADAPTIVE mode) and becomes the distance to the current k-th best object
// once leaves have been reached (UPDATE/NORMAL modes). Deferred candidates
// are kept in a stack of *runs* — one run per processing step, each sorted
// by MinDist and terminated by a guard — so deeper (more precise) MBRs are
// reconsidered first and a run is abandoned wholesale at its first
// non-intersecting member. Each activation batch is bounded by the number
// of disks `u`, balancing parallelism against wasted fetches.

#ifndef SQP_CORE_CRSS_H_
#define SQP_CORE_CRSS_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "core/lemma1.h"
#include "core/search_algorithm.h"
#include "geometry/point.h"
#include "rstar/rstar_tree.h"

namespace sqp::core {

enum class CrssMode { kAdaptive, kNormal, kUpdate, kTerminate };

struct CrssOptions {
  // Upper activation bound `u` — the number of disks in the array. Batches
  // never exceed it (except when the Lemma 1 lower bound `l` requires more
  // pages to guarantee k objects, which takes precedence).
  int max_activation = 10;
  // When false the lower bound `l` is not enforced (ablation knob).
  bool enforce_lower_bound = true;
};

class Crss : public SearchAlgorithm {
 public:
  Crss(const rstar::RStarTree& tree, geometry::Point query, size_t k,
       const CrssOptions& options);

  StepResult Begin() override;
  StepResult OnPagesFetched(const std::vector<FetchedPage>& pages) override;
  const KnnResultSet& result() const override { return result_; }
  std::string_view name() const override { return "CRSS"; }

  CrssMode mode() const { return mode_; }
  // Candidate runs currently on the stack (for tests / introspection).
  size_t StackRuns() const { return stack_.size(); }

 private:
  struct Candidate {
    double min_dist_sq;
    rstar::PageId page;
    uint32_t count;
  };
  // A run is sorted by descending MinDist; the nearest candidate pops from
  // the back. The run boundary itself plays the role of the paper's guard
  // entry.
  using Run = std::vector<Candidate>;

  // Classifies the pooled entries (pool_) against dth_sq_, activates
  // between `l` and `u` entries, pushes the rest as a new run, and returns
  // the step.
  StepResult ProcessInternal(uint64_t n_scanned);

  // Pops candidate runs until one yields activatable pages or the stack
  // empties (Get-Candidate-Run of Figure 6).
  StepResult PopNextRun(uint64_t cpu_instructions);

  const rstar::RStarTree& tree_;
  geometry::Point query_;
  size_t k_;
  CrssOptions options_;
  KnnResultSet result_;
  double dth_sq_ = std::numeric_limits<double>::infinity();
  std::vector<Run> stack_;
  CrssMode mode_ = CrssMode::kAdaptive;
  bool leaf_level_reached_ = false;
  bool started_ = false;
  // Pooled entries of the current batch + kernel buffers, reused across
  // steps.
  EntryPool pool_;
  std::vector<double> dist_;
  std::vector<double> minmax_;
  std::vector<double> far_scratch_;
  Lemma1Scratch lemma_scratch_;
};

}  // namespace sqp::core

#endif  // SQP_CORE_CRSS_H_
