#include "core/crss.h"

#include <algorithm>

#include "geometry/kernels.h"

namespace sqp::core {

Crss::Crss(const rstar::RStarTree& tree, geometry::Point query, size_t k,
           const CrssOptions& options)
    : tree_(tree),
      query_(std::move(query)),
      k_(k),
      options_(options),
      result_(k),
      pool_(tree.config().dim) {
  SQP_CHECK(query_.dim() == tree_.config().dim);
  SQP_CHECK(options_.max_activation >= 1);
}

StepResult Crss::Begin() {
  SQP_CHECK(!started_);
  started_ = true;
  StepResult step;
  step.requests.push_back(tree_.root());
  return step;
}

StepResult Crss::OnPagesFetched(const std::vector<FetchedPage>& pages) {
  SQP_CHECK(!pages.empty());
  SQP_CHECK(mode_ != CrssMode::kTerminate);

  if (pages[0].node->IsLeaf()) {
    // UPDATE mode: data objects refine the k-best array and thereby Dth.
    mode_ = CrssMode::kUpdate;
    leaf_level_reached_ = true;
    uint64_t n_scanned = 0;
    for (const FetchedPage& p : pages) {
      const FlatNode& n = *p.node;
      SQP_DCHECK(n.IsLeaf());
      n_scanned += n.size();
      dist_.resize(n.size());
      geometry::MinDistBatch(query_, n.lo_planes(), n.hi_planes(), n.size(),
                             dist_.data());
      for (size_t i = 0; i < n.size(); ++i) {
        result_.Add(n.object(i), dist_[i]);
      }
    }
    dth_sq_ = std::min(dth_sq_, result_.KthDistSq());
    const uint64_t cost =
        ScanSortCost(n_scanned, std::min(n_scanned, uint64_t{k_}));
    return PopNextRun(cost);
  }

  // Internal nodes: pool all fetched entries and run candidate reduction.
  mode_ = leaf_level_reached_ ? CrssMode::kNormal : CrssMode::kAdaptive;
  pool_.Clear();
  uint64_t n_scanned = 0;
  for (const FetchedPage& p : pages) {
    SQP_DCHECK(!p.node->IsLeaf());
    n_scanned += p.node->size();
    pool_.AppendAll(*p.node);
  }
  return ProcessInternal(n_scanned);
}

StepResult Crss::ProcessInternal(uint64_t n_scanned) {
  // Tighten the threshold. Lemma 1 holds on any entry subset (its prefix
  // spheres contain real objects), so it is applied in NORMAL mode too; in
  // ADAPTIVE mode it is the only bound available, in NORMAL mode the k-th
  // best actual distance usually dominates.
  const Lemma1Threshold lemma =
      ComputeLemma1Soa(query_, pool_.lo_planes(), pool_.hi_planes(),
                       pool_.counts_data(), pool_.size(), k_,
                       &lemma_scratch_);
  dth_sq_ = std::min(dth_sq_, lemma.dth_sq);
  dth_sq_ = std::min(dth_sq_, result_.KthDistSq());

  // Candidate reduction criterion (§3.3). MinMaxDist is computed for the
  // whole pool in one kernel pass; entries rejected on MinDist simply
  // never read their slot.
  const size_t pool_size = pool_.size();
  dist_.resize(pool_size);
  minmax_.resize(pool_size);
  far_scratch_.resize(pool_size);
  geometry::MinDistBatch(query_, pool_.lo_planes(), pool_.hi_planes(),
                         pool_size, dist_.data());
  geometry::MinMaxDistBatch(query_, pool_.lo_planes(), pool_.hi_planes(),
                            pool_size, minmax_.data(), far_scratch_.data());
  std::vector<Candidate> active;
  std::vector<Candidate> deferred;
  for (size_t i = 0; i < pool_size; ++i) {
    const double dmin = dist_[i];
    if (dmin > dth_sq_) continue;  // rejected
    Candidate c{dmin, pool_.child(i), pool_.count(i)};
    if (minmax_[i] <= dth_sq_) {
      active.push_back(c);
    } else {
      deferred.push_back(c);
    }
  }

  auto by_min_dist = [](const Candidate& a, const Candidate& b) {
    if (a.min_dist_sq != b.min_dist_sq) return a.min_dist_sq < b.min_dist_sq;
    return a.page < b.page;
  };
  std::sort(active.begin(), active.end(), by_min_dist);
  std::sort(deferred.begin(), deferred.end(), by_min_dist);

  const uint64_t m_sorted = active.size() + deferred.size();

  // Upper activation bound u: overflow goes to the candidate set, best
  // (nearest) entries stay active.
  const size_t u = static_cast<size_t>(options_.max_activation);
  while (active.size() > u) {
    deferred.insert(std::lower_bound(deferred.begin(), deferred.end(),
                                     active.back(), by_min_dist),
                    active.back());
    active.pop_back();
  }

  // Lower bound l: the activated subtrees must together guarantee at least
  // k objects (or everything reachable), so the first leaf wave can
  // instantiate Dk. Promote the nearest deferred candidates until the
  // guarantee holds.
  if (options_.enforce_lower_bound && !result_.Full()) {
    uint64_t covered = 0;
    for (const Candidate& c : active) covered += c.count;
    const uint64_t needed = std::min<uint64_t>(k_, lemma.total_count);
    size_t next = 0;
    while (covered < needed && next < deferred.size()) {
      covered += deferred[next].count;
      active.push_back(deferred[next]);
      ++next;
    }
    deferred.erase(deferred.begin(),
                   deferred.begin() + static_cast<std::ptrdiff_t>(next));
    std::sort(active.begin(), active.end(), by_min_dist);
  }

  // Push survivors as a new candidate run, furthest first so the nearest
  // candidate pops first.
  if (!deferred.empty()) {
    std::reverse(deferred.begin(), deferred.end());
    stack_.push_back(std::move(deferred));
  }

  const uint64_t cost = ScanSortCost(n_scanned, m_sorted);
  if (active.empty()) {
    // Everything was rejected or deferred; continue from the stack.
    return PopNextRun(cost);
  }
  StepResult step;
  step.cpu_instructions = cost;
  step.requests.reserve(active.size());
  for (const Candidate& c : active) step.requests.push_back(c.page);
  return step;
}

StepResult Crss::PopNextRun(uint64_t cpu_instructions) {
  StepResult step;
  step.cpu_instructions = cpu_instructions;

  while (!stack_.empty()) {
    Run& run = stack_.back();
    std::vector<Candidate> survivors;
    // Candidates pop in ascending MinDist order; the first one outside the
    // query sphere kills the remainder of the run (guard semantics).
    while (!run.empty()) {
      const Candidate c = run.back();
      if (c.min_dist_sq > dth_sq_) {
        run.clear();
        break;
      }
      survivors.push_back(c);
      run.pop_back();
    }
    stack_.pop_back();
    if (survivors.empty()) continue;

    // Activate at most u survivors; the remainder becomes a fresh run on
    // top of the stack (it is still sorted by ascending MinDist).
    const size_t u = static_cast<size_t>(options_.max_activation);
    if (survivors.size() > u) {
      Run rest(survivors.begin() + static_cast<std::ptrdiff_t>(u),
               survivors.end());
      std::reverse(rest.begin(), rest.end());  // back = nearest
      stack_.push_back(std::move(rest));
      survivors.resize(u);
    }
    step.requests.reserve(survivors.size());
    for (const Candidate& c : survivors) step.requests.push_back(c.page);
    return step;
  }

  mode_ = CrssMode::kTerminate;
  step.done = true;
  return step;
}

}  // namespace sqp::core
