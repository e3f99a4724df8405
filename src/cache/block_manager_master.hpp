// BlockManagerMaster: cluster-wide view of block copies and the decision
// point for caching, lookup, proactive eviction and prefetch — the
// simulator analogue of the paper's modified Spark component (Fig. 7).
//
// Physical data rules (see DESIGN.md §4):
//  * input RDD blocks live on HDFS node disks per HdfsPlacement, forever;
//  * every produced block is durably written to the producer node's disk;
//  * memory copies are the cache: eviction drops the memory copy only.
//
// All per-block state is stored in flat arrays indexed by the DAG's
// dense block ordinal (JobDag::block_ord); ordinal order is ascending
// BlockId order, so index-order walks are deterministic by construction
// (DESIGN.md §11).
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "cache/block_manager.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/hdfs.hpp"
#include "cluster/topology.hpp"
#include "common/fsm.hpp"

namespace dagon {

class BlockManagerMaster {
 public:
  /// `cache_enabled = false` models the paper's caching-disabled ablation
  /// (Fig. 9/10): no block is ever admitted to memory.
  BlockManagerMaster(const Topology& topo, const JobDag& dag,
                     const HdfsPlacement& hdfs, ReferenceOracle& oracle,
                     const CachePolicy& policy, bool cache_enabled = true);

  /// Seeds memory with the DAG's initially-cached input partitions (the
  /// black blocks of Fig. 1): each goes to the first executor of its
  /// primary HDFS replica node.
  void seed_initial_cache(SimTime now);

  /// Where executor `reader` would read `block` from right now, best
  /// source first. Throws InvariantError if the block exists nowhere
  /// (reading a block before its producer finished is a scheduler bug).
  struct Lookup {
    BlockSource source = BlockSource::LocalDisk;
    /// Holder executor for memory sources.
    ExecutorId holder = ExecutorId::invalid();
    /// Holder node for disk sources.
    NodeId disk_node = NodeId::invalid();
  };
  [[nodiscard]] Lookup lookup(const BlockId& block, ExecutorId reader) const;

  [[nodiscard]] bool exists(const BlockId& block) const;

  /// How a read of every partition of `rdd` by `reader` splits over the
  /// disk source classes. Given only when that read provably leaves
  /// cache state untouched: no partition has a memory copy anywhere, so
  /// each one's best source is its nearest disk copy, and a disk read
  /// cannot admit it (the RDD is not cacheable or caching is off), so
  /// on_block_read would be a no-op. nullopt otherwise: the caller must
  /// lookup() block by block. O(1), from the per-RDD tallies; throws
  /// InvariantError, as lookup() does, if some partition exists nowhere.
  struct DiskReadCounts {
    std::int32_t local = 0;   ///< BlockSource::LocalDisk
    std::int32_t rack = 0;    ///< BlockSource::RackDisk
    std::int32_t remote = 0;  ///< BlockSource::RemoteDisk
  };
  [[nodiscard]] std::optional<DiskReadCounts> disk_only_read(
      RddId rdd, ExecutorId reader) const;

  /// Does every partition of `rdd` have a durable disk copy? (Then every
  /// partition exists; false says nothing about any one partition.)
  [[nodiscard]] bool all_partitions_on_disk(RddId rdd) const {
    return tallies_.on_disk[static_cast<std::size_t>(rdd.value())] ==
           dag_->rdd(rdd).num_partitions;
  }

  /// A task on `exec` finished producing `block`: record the durable
  /// disk copy and (for cacheable RDDs) try to admit it to memory.
  void on_block_produced(const BlockId& block, ExecutorId exec, SimTime now);

  /// A task on `exec` read `block` via `how`. Updates recency; on a disk
  /// read of a cacheable RDD, admits the block into the reader's memory
  /// (Spark caches a persisted partition where it is first materialized).
  void on_block_read(const BlockId& block, ExecutorId exec,
                     const Lookup& how, SimTime now);

  /// Proactively evicts dead blocks everywhere (policies that opt in).
  /// Returns the number of blocks dropped.
  int proactive_sweep();

  /// Best node-local prefetch candidate for `exec`: a disk-resident
  /// block with no memory copy anywhere, ranked by the policy's prefetch
  /// priority. Returns nullopt when the policy does not prefetch or no
  /// candidate fits.
  struct PrefetchChoice {
    BlockId block;
    Bytes bytes{};
    NodeId from_disk = NodeId::invalid();
  };
  [[nodiscard]] std::optional<PrefetchChoice> prefetch_candidate(
      ExecutorId exec) const;

  /// Completes a prefetch: admit into `exec`'s memory (may be refused if
  /// the cache filled up meanwhile).
  bool finish_prefetch(const BlockId& block, ExecutorId exec, SimTime now);

  /// Executors holding `block` in memory (for locality preferences).
  /// Returns a view into internal state; invalidated by any mutation.
  [[nodiscard]] const std::vector<ExecutorId>& memory_holders(
      const BlockId& block) const {
    return memory_copies_[ord(block)];
  }

  /// Nodes holding `block` on disk (HDFS replicas + produced copies,
  /// deduplicated). Returns a view into a lazily maintained per-block
  /// cache — no per-call allocation; invalidated when a new durable copy
  /// of the block appears.
  [[nodiscard]] const std::vector<NodeId>& disk_holders(
      const BlockId& block) const;

  /// HDFS replica nodes of `block` (empty for non-input blocks).
  [[nodiscard]] const std::vector<NodeId>& hdfs_replicas(
      const BlockId& block) const {
    return hdfs_->replicas(block);
  }

  /// Nodes holding a produced durable copy of `block`.
  [[nodiscard]] const std::vector<NodeId>& produced_disk_nodes(
      const BlockId& block) const {
    return produced_disk_[ord(block)];
  }

  // -- fault injection ----------------------------------------------------

  /// Everything an executor crash destroyed, from the master's view.
  struct DropResult {
    std::int64_t memory_dropped = 0;
    std::int64_t disk_dropped = 0;
    /// Disk copies re-materialized from a surviving memory holder (keeps
    /// the "every memory block is disk-backed" invariant that makes
    /// normal eviction safe).
    std::int64_t rereplicated = 0;
    /// Blocks whose last copy died: lineage recovery must recompute them.
    std::vector<BlockId> lost;
  };

  /// Executor `exec` crashed: drop its memory copies and every produced
  /// durable disk copy it wrote. Blocks with a surviving memory copy get
  /// a replacement disk copy at the holder's node; blocks with no copy
  /// left anywhere are returned in `lost` (ascending id order).
  DropResult drop_executor(ExecutorId exec);

  /// Random block loss: destroys one memory copy (the disk copy, if any,
  /// survives). Returns false if `exec` no longer holds the block.
  bool drop_memory_block(const BlockId& block, ExecutorId exec);

  // -- gray failures ------------------------------------------------------

  /// Marks `exec` suspect (or clears the mark). Suspect executors still
  /// serve reads — a gray-failed executor is reachable, just untrusted —
  /// but their memory copies grant no locality preference, so the
  /// scheduler stops steering tasks toward them.
  void set_executor_suspect(ExecutorId exec, bool suspect);
  [[nodiscard]] bool executor_suspect(ExecutorId exec) const {
    return suspect_[static_cast<std::size_t>(exec.value())] != 0;
  }

  /// Any memory holder of `block` that is not suspect? (The locality
  /// layer's definition of a usable Process preference.)
  [[nodiscard]] bool any_healthy_memory_holder(const BlockId& block) const;

  /// Proactive re-replication: every block whose copies (memory holders,
  /// produced-disk attributions) all live on *currently suspect*
  /// executors and that has no HDFS replica would be fully lost if those
  /// suspects die. Write each such block a durable disk copy attributed
  /// to `target` (same re-materialization as drop_executor), so a later
  /// death degrades to a plain crash with zero lineage recomputes.
  struct RereplicationResult {
    std::int64_t blocks = 0;
    Bytes bytes{};
  };
  RereplicationResult rereplicate_suspect_blocks(ExecutorId target);

  [[nodiscard]] BlockManager& manager(ExecutorId exec);
  [[nodiscard]] const BlockManager& manager(ExecutorId exec) const;

  [[nodiscard]] const ReferenceOracle& oracle() const { return *oracle_; }
  [[nodiscard]] bool cache_enabled() const { return cache_enabled_; }

  [[nodiscard]] Bytes block_bytes(const BlockId& block) const;

  /// Lifetime counters for metrics.
  struct Counters {
    std::int64_t insertions = 0;
    std::int64_t evictions = 0;
    std::int64_t proactive_evictions = 0;
    std::int64_t prefetches = 0;
    std::int64_t rejected_admissions = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // -- lifecycle (fsm::StateMachine<BlockResidency>) -----------------------

  /// Current residency of `block`. Input blocks start at Disk (HDFS);
  /// a never-produced block reports Absent. Tracked through the block
  /// transition table purely as a shadow of the copy maps — placement
  /// decisions never read it, so it cannot perturb fingerprints.
  [[nodiscard]] BlockResidency residency(const BlockId& block) const {
    return residency_[ord(block)];
  }

  /// Checks every tracked block's residency against the copy maps
  /// (Memory ⟺ a memory holder exists, Disk/Evicted ⟹ durable copy
  /// only, Lost/Absent ⟹ no copy anywhere), and the per-RDD tallies
  /// against a recount. Throws InvariantError on divergence; the driver
  /// runs this at quiescence.
  void verify_residency() const;

  /// Release-build sink for illegal residency transitions (folded into
  /// metrics_fingerprint by the driver). Null = throw-only enforcement.
  void set_fsm_violations(fsm::Violations* sink) { fsm_violations_ = sink; }

 private:
  [[nodiscard]] std::size_t ord(const BlockId& block) const {
    return static_cast<std::size_t>(dag_->block_ord(block));
  }

  void apply_insert(const BlockManager::InsertResult& result,
                    const BlockId& block, ExecutorId exec);
  void note_evicted(const BlockId& block, ExecutorId exec);
  /// Routes every residency write through the transition table.
  void set_residency(const BlockId& block, BlockResidency to);

  // -- prefetch candidate index -------------------------------------------
  // prefetchable_[o] flags blocks that are cacheable, durably on disk,
  // and in no executor's memory; prefetch_by_node_[n] holds exactly the
  // flagged ordinals with a disk copy (HDFS or produced) on node n, so
  // prefetch_candidate() scans only the node-local subset. Invariant:
  // flagged ⟺ indexed under every current disk-holder node. Any code
  // mutating a flagged block's disk-node set must unindex first and
  // reindex after (see drop_executor / on_block_produced).
  void index_prefetchable(std::size_t o);
  void unindex_prefetchable(std::size_t o);
  void add_prefetchable(std::size_t o);
  void remove_prefetchable(std::size_t o);

  // -- per-RDD copy tallies -----------------------------------------------
  // What disk_only_read() answers from. A partition counts once per node
  // and once per rack holding a durable disk copy (HDFS replica or
  // produced copy), so for a reader on node n in rack r, with no memory
  // copies, LocalDisk = on_node[n], RackDisk = in_rack[r] - on_node[n]
  // and RemoteDisk = M - in_rack[r] — exactly lookup()'s per-block pick.
  // Invariant: tallies_ == count_tallies(). Every mutation of a block's
  // disk-node set is bracketed by tally_disk(-1) / tally_disk(+1):
  // construction from HdfsPlacement, on_block_produced on a new node,
  // drop_executor and rereplicate_suspect_blocks. apply_insert and
  // note_evicted count a block's first and last memory copy.
  struct Tallies {
    Tallies() = default;
    Tallies(std::size_t rdds, std::size_t nodes, std::size_t racks)
        : on_node(rdds * nodes),
          in_rack(rdds * racks),
          on_disk(rdds),
          in_memory(rdds) {}
    std::vector<std::int32_t> on_node;    ///< [rdd * num_nodes + node]
    std::vector<std::int32_t> in_rack;    ///< [rdd * num_racks + rack]
    std::vector<std::int32_t> on_disk;    ///< [rdd]: ≥1 disk copy
    std::vector<std::int32_t> in_memory;  ///< [rdd]: ≥1 memory copy
    bool operator==(const Tallies&) const = default;
  };
  /// Adds (delta = 1) or removes (-1) `block`'s current disk copies.
  void tally_disk(Tallies& t, const BlockId& block, std::int32_t delta) const;
  /// The tallies recounted from the copy sets.
  [[nodiscard]] Tallies count_tallies() const;

  const Topology* topo_;
  const JobDag* dag_;
  const HdfsPlacement* hdfs_;
  ReferenceOracle* oracle_;
  const CachePolicy* policy_;
  bool cache_enabled_;

  std::vector<BlockManager> managers_;  // indexed by executor id
  /// Executors holding a memory copy, indexed by block ordinal.
  std::vector<std::vector<ExecutorId>> memory_copies_;
  /// Produced blocks' durable disk nodes (inputs are answered via
  /// hdfs_), indexed by block ordinal.
  std::vector<std::vector<NodeId>> produced_disk_;
  /// Executors that wrote a durable copy of each produced block — the
  /// attribution drop_executor() needs to rebuild produced_disk_ after a
  /// crash. Indexed by block ordinal.
  std::vector<std::vector<ExecutorId>> produced_by_;
  /// Prefetch candidate flags + per-node candidate sets (see above).
  std::vector<char> prefetchable_;
  std::vector<std::set<std::int64_t>> prefetch_by_node_;
  /// 1 = suspected by the failure detector (indexed by executor id).
  std::vector<char> suspect_;
  /// Lazily built union of hdfs_replicas + produced_disk_nodes per
  /// block ordinal, so disk_holders() is a view. Invalidated when a new
  /// produced copy lands (disk copies are never removed otherwise).
  mutable std::vector<std::vector<NodeId>> disk_union_;
  mutable std::vector<char> disk_union_valid_;
  /// Shadow lifecycle state per block ordinal
  /// (fsm::StateMachine<BlockResidency>): constructed Disk for input
  /// blocks on HDFS, Absent otherwise; written only by set_residency().
  std::vector<fsm::State<BlockResidency>> residency_;
  fsm::Violations* fsm_violations_ = nullptr;
  Tallies tallies_;
  Counters counters_;
};

}  // namespace dagon
