// Per-executor in-memory block store — the simulator's analogue of
// Spark's BlockManager memory store.
//
// Capacity is in bytes; victim selection and admission are delegated to
// the configured CachePolicy. The manager never loses data: every block
// also has a disk copy (input blocks on HDFS, produced blocks on the
// producer's local disk), so eviction only drops the memory copy.
//
// Storage is a flat vector sorted by block id: caches hold at most a
// few hundred blocks, so binary-search lookups beat hashing, and every
// walk is in ascending block-id order by construction — no hash-order
// hazard.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_policy.hpp"
#include "common/strong_id.hpp"
#include "common/units.hpp"

namespace dagon {

class BlockManager {
 public:
  BlockManager(ExecutorId executor, Bytes capacity,
               const CachePolicy& policy);

  struct CachedBlock {
    Bytes bytes{};
    SimTime last_access{};
    SimTime inserted_at{};
  };

  struct Entry {
    BlockId id;
    CachedBlock meta;
  };

  struct InsertResult {
    bool admitted = false;
    std::vector<BlockId> evicted;
  };

  /// Tries to cache `block`. May evict lower-retention blocks; under
  /// non-always-admit policies (MRD/LRP) the insert is refused when the
  /// new block would displace strictly more valuable ones. With
  /// `strict_admission` (prefetch path) the block must strictly beat
  /// every victim — equal-value swaps would thrash.
  InsertResult insert(const BlockId& block, Bytes bytes, SimTime now,
                      const ReferenceOracle& oracle,
                      bool strict_admission = false);

  /// Smallest retention priority among cached blocks (+inf when empty);
  /// lets callers predict whether an insert/prefetch would be admitted.
  [[nodiscard]] double min_retention(const ReferenceOracle& oracle) const;

  [[nodiscard]] bool contains(const BlockId& block) const {
    return find(block) != nullptr;
  }

  /// Records an access for recency bookkeeping.
  void touch(const BlockId& block, SimTime now);

  /// Removes one block (no-op if absent); returns true if removed.
  bool remove(const BlockId& block);

  /// Proactively evicts blocks the policy declares dead (zero remaining
  /// references / zero reference priority). Returns the evicted ids.
  /// Cheap when nothing changed: the scan is skipped unless the oracle's
  /// epoch moved or a block was inserted since the last sweep (a block's
  /// deadness depends only on the block and the oracle state).
  std::vector<BlockId> evict_dead(const ReferenceOracle& oracle);

  [[nodiscard]] ExecutorId executor() const { return executor_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used_bytes() const { return used_; }
  [[nodiscard]] Bytes free_bytes() const { return capacity_ - used_; }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

  /// The store, sorted by ascending block id — range-iteration order is
  /// deterministic. Invalidated by any mutation; callers that mutate
  /// while walking must copy the ids first.
  [[nodiscard]] const std::vector<Entry>& entries() const { return blocks_; }

  [[nodiscard]] const CachePolicy& policy() const { return *policy_; }

 private:
  [[nodiscard]] const Entry* find(const BlockId& block) const;
  [[nodiscard]] Entry* find(const BlockId& block);

  ExecutorId executor_;
  Bytes capacity_;
  const CachePolicy* policy_;
  std::vector<Entry> blocks_;  // sorted by Entry::id
  Bytes used_{};
  /// Dead-sweep memo: last oracle epoch swept at, and whether an insert
  /// landed since (see evict_dead).
  std::uint64_t swept_epoch_ = ~std::uint64_t{0};
  bool inserted_since_sweep_ = false;
};

}  // namespace dagon
