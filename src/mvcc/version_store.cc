#include "mvcc/version_store.h"

namespace anker::mvcc {

VersionArena::~VersionArena() {
  Chunk* chunk = chunks_;
  while (chunk != nullptr) {
    Chunk* next = chunk->next;
    delete chunk;
    chunk = next;
  }
}

VersionNode* VersionArena::Allocate() {
  // Free-list pop (Treiber stack). Safe against concurrent Recycle pushes:
  // there is exactly one popper (the committing writer), so the loaded
  // head cannot be popped out from under us — a failed CAS only means a
  // push happened, and we retry.
  VersionNode* head = free_list_.load(std::memory_order_acquire);
  while (head != nullptr) {
    if (free_list_.compare_exchange_weak(head, head->next,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      reused_.fetch_add(1, std::memory_order_relaxed);
      return head;
    }
  }
  if (used_in_chunk_ == kNodesPerChunk) {
    Chunk* fresh = new Chunk;
    fresh->next = chunks_;
    chunks_ = fresh;
    used_in_chunk_ = 0;
    chunk_count_.fetch_add(1, std::memory_order_relaxed);
  }
  return &chunks_->nodes[used_in_chunk_++];
}

void VersionArena::Recycle(VersionNode* head) {
  if (head == nullptr) return;
  VersionNode* tail = head;
  while (tail->next != nullptr) tail = tail->next;
  VersionNode* old_head = free_list_.load(std::memory_order_relaxed);
  do {
    tail->next = old_head;
  } while (!free_list_.compare_exchange_weak(old_head, head,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
}

ChainDirectory::ChainDirectory(size_t num_rows,
                               std::shared_ptr<ChainDirectory> prev)
    : num_rows_(num_rows),
      blocks_((num_rows + kRowsPerBlock - 1) / kRowsPerBlock),
      prev_(std::move(prev)) {
  prev_raw_.store(prev_.get(), std::memory_order_relaxed);
  if (prev_ != nullptr) prev_seal_ts_ = prev_->seal_ts();
  for (auto& block : blocks_) block.store(nullptr, std::memory_order_relaxed);
}

ChainDirectory::~ChainDirectory() {
  // Chains need no walking: every node lives in arena_, whose destructor
  // drops all chunks at once (the paper's implicit GC — releasing a
  // snapshot's segment frees its entire version history in O(chunks)).
  for (auto& slot : blocks_) {
    Block* block = slot.load(std::memory_order_relaxed);
    if (block != nullptr) delete block;
  }
}

ChainDirectory::Block* ChainDirectory::GetOrCreateBlock(size_t block_idx) {
  Block* block = blocks_[block_idx].load(std::memory_order_acquire);
  if (block != nullptr) return block;
  // Committers create blocks concurrently (EnsureBlock runs before the
  // commit mutex): the CAS loser frees its copy and takes the winner's.
  Block* fresh = new Block();
  Block* expected = nullptr;
  if (blocks_[block_idx].compare_exchange_strong(expected, fresh,
                                                 std::memory_order_release)) {
    return fresh;
  }
  delete fresh;
  return expected;
}

void ChainDirectory::AddVersion(size_t row, uint64_t old_value,
                                Timestamp commit_ts) {
  ANKER_CHECK(row < num_rows_);
  const size_t block_idx = row / kRowsPerBlock;
  const uint32_t in_block = static_cast<uint32_t>(row % kRowsPerBlock);
  Block* block = GetOrCreateBlock(block_idx);

  // Seqlock write section: readers running a tight-loop block scan retry
  // when they observe the counter change.
  block->seq.fetch_add(1, std::memory_order_acq_rel);

  // Publish block metadata before the node so a reader that takes the
  // per-row path knows this row may be versioned.
  uint32_t first = block->first_versioned.load(std::memory_order_relaxed);
  while (in_block < first &&
         !block->first_versioned.compare_exchange_weak(
             first, in_block, std::memory_order_release)) {
  }
  uint32_t last = block->last_versioned.load(std::memory_order_relaxed);
  while (in_block > last && !block->last_versioned.compare_exchange_weak(
                                last, in_block, std::memory_order_release)) {
  }
  block->has_versions.store(true, std::memory_order_release);
  // Timestamps are drawn monotonically and there is a single writer, so a
  // plain max update suffices. Scans use max_ts to prove that none of the
  // block's versions are relevant at their read timestamp and go tight —
  // this is what makes scans on fresh snapshots chain-free even though the
  // handed-over chains travel with them (paper Fig. 1, step 5).
  if (commit_ts > block->max_ts.load(std::memory_order_relaxed)) {
    block->max_ts.store(commit_ts, std::memory_order_release);
  }

  // Arena bump (or free-list reuse) instead of a heap allocation: this
  // runs inside the commit critical section, where a malloc would
  // serialize every committer behind the allocator.
  VersionNode* node = arena_.Allocate();
  // The node may be free-list recycled while a snapshot scan that raced
  // past the old chain's unlink still traverses it; the scan's seqlock
  // validation (Block::seq below) discards whatever it read. Payload
  // stores go through the TSAN-annotated helper so only unintended races
  // are reported.
  StoreNodePayload(node, old_value, commit_ts);
  StoreNext(node, block->heads[in_block].load(std::memory_order_relaxed));
  block->heads[in_block].store(node, std::memory_order_release);
  total_versions_.fetch_add(1, std::memory_order_relaxed);

  block->seq.fetch_add(1, std::memory_order_release);
}

const VersionNode* ChainDirectory::Head(size_t row) const {
  ANKER_CHECK(row < num_rows_);
  const Block* block =
      blocks_[row / kRowsPerBlock].load(std::memory_order_acquire);
  if (block == nullptr) return nullptr;
  return block->heads[row % kRowsPerBlock].load(std::memory_order_acquire);
}

BlockInfo ChainDirectory::GetBlockInfo(size_t block_idx) const {
  ANKER_CHECK(block_idx < blocks_.size());
  const Block* block = blocks_[block_idx].load(std::memory_order_acquire);
  if (block == nullptr) {
    return BlockInfo{static_cast<uint32_t>(kRowsPerBlock), 0, 0, 0, false};
  }
  BlockInfo info;
  info.seq = block->seq.load(std::memory_order_acquire);
  info.has_versions = block->has_versions.load(std::memory_order_acquire);
  info.first_versioned =
      block->first_versioned.load(std::memory_order_acquire);
  info.last_versioned = block->last_versioned.load(std::memory_order_acquire);
  info.max_ts = block->max_ts.load(std::memory_order_acquire);
  if (!info.has_versions) {
    info.first_versioned = static_cast<uint32_t>(kRowsPerBlock);
    info.last_versioned = 0;
  }
  return info;
}

size_t ChainDirectory::TruncateOlderThan(Timestamp min_active,
                                         std::vector<VersionNode*>* retired) {
  size_t unlinked = 0;
  for (auto& slot : blocks_) {
    Block* block = slot.load(std::memory_order_acquire);
    if (block == nullptr) continue;
    for (auto& head_slot : block->heads) {
      VersionNode* head = head_slot.load(std::memory_order_acquire);
      if (head == nullptr) continue;
      // A node with ts <= min_active can never be "the oldest node with
      // ts > s" for any live or future reader (s >= min_active), so the
      // suffix starting at the first such node is dead.
      if (head->ts <= min_active) {
        // The whole chain is dead: unlink from the head slot.
        if (head_slot.compare_exchange_strong(head, nullptr,
                                              std::memory_order_acq_rel)) {
          retired->push_back(head);
          for (const VersionNode* n = head; n != nullptr; n = LoadNext(n)) {
            ++unlinked;
          }
        }
        continue;
      }
      VersionNode* keep = head;  // Last node with ts > min_active.
      while (LoadNextMutable(keep) != nullptr &&
             LoadNextMutable(keep)->ts > min_active) {
        keep = LoadNextMutable(keep);
      }
      VersionNode* dead = LoadNextMutable(keep);
      if (dead != nullptr) {
        // Single GC thread + append-only writers (writers only ever push a
        // new head; they never touch interior next pointers), so only the
        // racing readers need the LoadNext annotation. Readers already
        // past `keep` continue into the retired suffix, which stays
        // allocated until they drain.
        StoreNext(keep, nullptr);
        retired->push_back(dead);
        for (const VersionNode* n = dead; n != nullptr; n = LoadNext(n)) {
          ++unlinked;
        }
      }
    }
  }
  total_versions_.fetch_sub(unlinked, std::memory_order_relaxed);
  return unlinked;
}

size_t ChainDirectory::RecycleChain(VersionNode* head) {
  size_t count = 0;
  for (const VersionNode* node = head; node != nullptr; node = node->next) {
    ++count;
  }
  arena_.Recycle(head);
  return count;
}

VersionStore::VersionStore(size_t num_rows)
    : num_rows_(num_rows),
      current_(std::make_shared<ChainDirectory>(num_rows, nullptr)) {
  current_raw_.store(current_.get(), std::memory_order_release);
}

void VersionStore::AddVersion(size_t row, uint64_t old_value,
                              Timestamp commit_ts) {
  current_->AddVersion(row, old_value, commit_ts);
}

uint64_t VersionStore::ResolveVisible(size_t row, Timestamp start_ts,
                                      uint64_t slot_value) const {
  uint64_t candidate = slot_value;
  const ChainDirectory* dir = current_raw();
  while (dir != nullptr) {
    for (const VersionNode* node = dir->Head(row); node != nullptr;
         node = LoadNext(node)) {
      if (node->ts <= start_ts) return candidate;
      candidate = node->value;
    }
    // Segments older than start_ts cannot carry nodes with ts > start_ts.
    // The cached seal timestamp decides without dereferencing prev (which
    // may already be dropped); descending readers are guaranteed alive
    // targets by the DropPrev precondition.
    if (start_ts >= dir->prev_seal_ts()) return candidate;
    const ChainDirectory* prev = dir->prev_raw();
    if (prev == nullptr) return candidate;
    dir = prev;
  }
  return candidate;
}

Timestamp VersionStore::LastWriteTs(size_t row, Timestamp since) const {
  const ChainDirectory* dir = current_raw();
  while (dir != nullptr) {
    const VersionNode* head = dir->Head(row);
    if (head != nullptr) return head->ts;
    if (since >= dir->prev_seal_ts()) return kLoadTimestamp;
    const ChainDirectory* prev = dir->prev_raw();
    if (prev == nullptr) return kLoadTimestamp;
    dir = prev;
  }
  return kLoadTimestamp;
}

bool VersionStore::HasRelevantVersion(size_t row, Timestamp start_ts) const {
  return LastWriteTs(row, start_ts) > start_ts;
}

bool VersionStore::HasVersionsInRange(size_t row_begin,
                                      size_t row_end) const {
  ANKER_CHECK(row_begin <= row_end && row_end <= num_rows_);
  if (row_begin == row_end) return false;
  const size_t first_block = row_begin / kRowsPerBlock;
  const size_t last_block = (row_end - 1) / kRowsPerBlock;
  for (const ChainDirectory* dir = current_.get(); dir != nullptr;
       dir = dir->prev().get()) {
    const size_t blocks = dir->num_blocks();
    for (size_t b = first_block; b <= last_block && b < blocks; ++b) {
      const BlockInfo info = dir->GetBlockInfo(b);
      if (!info.has_versions) continue;
      const size_t first = b * kRowsPerBlock + info.first_versioned;
      const size_t last = b * kRowsPerBlock + info.last_versioned;
      if (first < row_end && last >= row_begin) return true;
    }
  }
  return false;
}

std::shared_ptr<ChainDirectory> VersionStore::SealEpoch(Timestamp seal_ts) {
  std::shared_ptr<ChainDirectory> sealed = current_;
  sealed->Seal(seal_ts);
  current_ = std::make_shared<ChainDirectory>(num_rows_, sealed);
  // Publish only after the fresh directory is fully constructed: latch-
  // free readers take this pointer without holding the column latch.
  current_raw_.store(current_.get(), std::memory_order_release);
  return sealed;
}

}  // namespace anker::mvcc
