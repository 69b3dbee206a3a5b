#include "exec/page_cache.h"

#include <utility>

#include "common/check.h"

namespace sqp::exec {

ShardedPageCache::ShardedPageCache(const PageCacheOptions& options,
                                   obs::MetricsRegistry* metrics)
    : capacity_pages_(options.capacity_pages),
      shard_capacity_(options.capacity_pages /
                      static_cast<size_t>(options.shards > 0 ? options.shards
                                                             : 1)),
      shards_(static_cast<size_t>(options.shards > 0 ? options.shards : 1)) {
  if (shard_capacity_ == 0 && capacity_pages_ > 0) shard_capacity_ = 1;
  if (metrics != nullptr) {
    m_hits_ = metrics->GetCounter("sqp_cache_hits_total");
    m_misses_ = metrics->GetCounter("sqp_cache_misses_total");
    m_insertions_ = metrics->GetCounter("sqp_cache_insertions_total");
    m_evictions_ = metrics->GetCounter("sqp_cache_evictions_total");
    m_pinned_skips_ = metrics->GetCounter("sqp_cache_pinned_skips_total");
    m_resident_ = metrics->GetGauge("sqp_cache_resident_pages");
  }
}

const FlatNode* ShardedPageCache::LookupPinned(uint64_t key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it == shard.frames.end() || it->second.dying) {
    ++shard.misses;
    if (m_misses_ != nullptr) m_misses_->Add(1);
    return nullptr;
  }
  ++shard.hits;
  if (m_hits_ != nullptr) m_hits_->Add(1);
  Frame& f = it->second;
  ++f.pins;
  shard.lru.splice(shard.lru.begin(), shard.lru, f.lru_pos);
  return &f.node;
}

const FlatNode* ShardedPageCache::ProbePinned(uint64_t key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it == shard.frames.end() || it->second.dying) return nullptr;
  Frame& f = it->second;
  ++f.pins;
  shard.lru.splice(shard.lru.begin(), shard.lru, f.lru_pos);
  return &f.node;
}

const FlatNode* ShardedPageCache::InsertPinned(uint64_t key,
                                               FlatNode node,
                                               uint32_t span) {
  SQP_CHECK(span >= 1);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end() && !it->second.dying) {
    // Raced with another inserter; keep the resident copy.
    Frame& f = it->second;
    ++f.pins;
    shard.lru.splice(shard.lru.begin(), shard.lru, f.lru_pos);
    return &f.node;
  }
  if (it != shard.frames.end()) {
    // A dying frame still pinned by an old-snapshot reader. Location keys
    // are never reissued before every invalidation of them has drained,
    // so the incoming bytes are identical to the dying frame's; serve the
    // resident copy rather than aliasing the key twice.
    Frame& f = it->second;
    ++f.pins;
    return &f.node;
  }
  shard.lru.push_front(key);
  Frame& f = shard.frames[key];
  f.node = std::move(node);
  f.span = span;
  f.pins = 1;
  f.lru_pos = shard.lru.begin();
  shard.resident_pages += span;
  ++shard.insertions;
  if (m_insertions_ != nullptr) m_insertions_->Add(1);
  if (m_resident_ != nullptr) m_resident_->Add(span);
  EvictLocked(shard);
  return &f.node;
}

void ShardedPageCache::Unpin(uint64_t key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(key);
  SQP_CHECK(it != shard.frames.end());
  SQP_CHECK(it->second.pins > 0);
  --it->second.pins;
  if (it->second.pins == 0 && it->second.dying) {
    EraseFrameLocked(shard, it);
    return;
  }
  if (it->second.pins == 0 && shard.resident_pages > shard_capacity_) {
    EvictLocked(shard);
  }
}

void ShardedPageCache::EraseFrameLocked(
    Shard& shard, std::unordered_map<uint64_t, Frame>::iterator it) {
  SQP_DCHECK(it->second.pins == 0);
  shard.resident_pages -= it->second.span;
  if (m_resident_ != nullptr) {
    m_resident_->Add(-static_cast<int64_t>(it->second.span));
  }
  shard.lru.erase(it->second.lru_pos);
  shard.frames.erase(it);
}

void ShardedPageCache::InvalidateOneLocked(
    Shard& shard, std::unordered_map<uint64_t, Frame>::iterator it) {
  if (it->second.dying) return;  // already retired
  ++shard.invalidations;
  if (it->second.pins > 0) {
    it->second.dying = true;  // reclaimed on the last Unpin
    return;
  }
  EraseFrameLocked(shard, it);
}

void ShardedPageCache::Invalidate(std::span<const uint64_t> keys) {
  for (uint64_t key : keys) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.frames.find(key);
    if (it == shard.frames.end()) continue;
    InvalidateOneLocked(shard, it);
  }
}

void ShardedPageCache::InvalidateAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      auto next = std::next(it);
      InvalidateOneLocked(shard, it);
      it = next;
    }
  }
}

void ShardedPageCache::EvictLocked(Shard& shard) {
  if (shard.resident_pages <= shard_capacity_) return;
  // Walk from the LRU end, skipping pinned frames. The newly inserted
  // frame sits at the MRU end and is pinned, so it is never its own
  // victim.
  auto pos = shard.lru.end();
  while (shard.resident_pages > shard_capacity_ &&
         pos != shard.lru.begin()) {
    --pos;
    auto it = shard.frames.find(*pos);
    SQP_DCHECK(it != shard.frames.end());
    if (it->second.pins > 0) {
      if (m_pinned_skips_ != nullptr) m_pinned_skips_->Add(1);
      continue;
    }
    shard.resident_pages -= it->second.span;
    ++shard.evictions;
    if (m_evictions_ != nullptr) m_evictions_->Add(1);
    if (m_resident_ != nullptr) m_resident_->Add(-static_cast<int64_t>(it->second.span));
    pos = shard.lru.erase(pos);
    shard.frames.erase(it);
  }
}

PageCacheStats ShardedPageCache::GetStats() const {
  PageCacheStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.resident_pages += shard.resident_pages;
    stats.invalidations += shard.invalidations;
  }
  return stats;
}

size_t ShardedPageCache::PinnedFrames() const {
  size_t pinned = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, frame] : shard.frames) {
      if (frame.pins > 0) ++pinned;
    }
  }
  return pinned;
}

}  // namespace sqp::exec
