// Cold-tier orchestration of the engine: extent-store lifecycle, the
// coldest-first spill policy (DatabaseConfig::cold_budget_bytes) and the
// aggregate residency stats. The per-segment mechanics live in
// src/storage/segment_storage.cc; this file merges candidates across
// columns and drives them under the engine's cold mutex.
#include <algorithm>

#include "engine/database.h"
#include "storage/extent.h"

namespace anker::engine {

namespace {

/// One spillable segment, tagged with its column.
struct Candidate {
  storage::ColumnSegments* segments = nullptr;
  storage::ColumnSegments::SpillCandidate c;
};

}  // namespace

Status Database::EnsureExtentStore() {
  if (extent_store_ != nullptr) return Status::OK();
  if (config_.data_dir.empty()) {
    return Status::InvalidArgument(
        "the extent store needs config.data_dir");
  }
  auto store = storage::ExtentStore::Open(
      storage::ExtentStore::DirIn(config_.data_dir));
  if (!store.ok()) return store.status();
  extent_store_ = store.TakeValue();
  return Status::OK();
}

Status Database::SpillToBudget(uint64_t budget_bytes) {
  if (extent_store_ == nullptr) return Status::OK();
  std::lock_guard<std::mutex> guard(cold_mutex_);
  return SpillToBudgetLocked(budget_bytes, /*single_pass=*/false);
}

Status Database::SpillToBudgetLocked(uint64_t budget_bytes,
                                     bool single_pass) {
  // One coarse LRU tick per pass: every segment touched since the last
  // pass reads as "this tick", everything older keeps its stamp.
  extent_store_->AdvanceClock();

  // Passes repeat while progress is made: spilling the coldest candidates
  // first, stopping as soon as residency fits the budget. A pass with no
  // progress means everything left is pinned, versioned, or racing a
  // writer — give up quietly (best effort by contract).
  for (;;) {
    std::vector<Candidate> candidates;
    uint64_t resident = 0;
    for (storage::Column* column : catalog_.AllColumns()) {
      storage::ColumnSegments* segments = column->segments();
      if (segments == nullptr) continue;
      resident += segments->resident_bytes();
      std::vector<storage::ColumnSegments::SpillCandidate> local;
      segments->CollectSpillCandidates(&local);
      for (const auto& c : local) candidates.push_back({segments, c});
    }
    if (resident <= budget_bytes) return Status::OK();
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.c.last_access < b.c.last_access;
              });
    bool progress = false;
    for (const Candidate& cand : candidates) {
      if (resident <= budget_bytes) break;
      auto spilled = cand.segments->TrySpill(cand.c.segment);
      if (!spilled.ok()) return spilled.status();
      if (spilled.value()) {
        progress = true;
        resident -= std::min<uint64_t>(resident, cand.c.bytes);
      }
    }
    if (resident <= budget_bytes || !progress || single_pass) {
      return Status::OK();
    }
  }
}

void Database::EnforceColdBudget() {
  if (extent_store_ == nullptr) return;
  // Cheap pre-check outside the mutex: the common case (under budget)
  // must not serialize OLAP finishes against each other.
  uint64_t resident = 0;
  for (storage::Column* column : catalog_.AllColumns()) {
    if (column->segments() != nullptr) {
      resident += column->segments()->resident_bytes();
    }
  }
  if (resident <= config_.cold_budget_bytes) return;
  std::unique_lock<std::mutex> guard(cold_mutex_, std::try_to_lock);
  if (!guard.owns_lock()) return;  // Someone is already spilling/pruning.
  const Status s =
      SpillToBudgetLocked(config_.cold_budget_bytes, /*single_pass=*/true);
  (void)s;  // Best effort: enforcement retries on the next release.
}

ColdTierStats Database::cold_stats() const {
  ColdTierStats stats;
  if (extent_store_ == nullptr) return stats;
  for (storage::Column* column : catalog_.AllColumns()) {
    const storage::ColumnSegments* segments = column->segments();
    if (segments == nullptr) continue;
    stats.resident_bytes += segments->resident_bytes();
    stats.cold_bytes += segments->cold_bytes();
  }
  stats.counters = extent_store_->counters();
  return stats;
}

}  // namespace anker::engine
