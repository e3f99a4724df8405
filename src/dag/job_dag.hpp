// Job DAG: immutable description of one application's stages and RDDs.
//
// Construction goes through JobDagBuilder, which wires parent/child
// links, validates narrow-dependency partition counts, and rejects
// cyclic or dangling structures — so a JobDag in hand is always sound.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dag/block.hpp"
#include "dag/rdd.hpp"
#include "dag/stage.hpp"

namespace dagon {

class JobDag {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] const std::vector<Stage>& stages() const { return stages_; }
  [[nodiscard]] const std::vector<Rdd>& rdds() const { return rdds_; }

  [[nodiscard]] const Stage& stage(StageId id) const;
  [[nodiscard]] const Rdd& rdd(RddId id) const;

  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }

  /// Stage producing `rdd`, or nullopt for input RDDs.
  [[nodiscard]] std::optional<StageId> producer_of(RddId rdd) const;

  /// Stages with no parents (ready at t=0).
  [[nodiscard]] std::vector<StageId> root_stages() const;
  /// Stages with no children.
  [[nodiscard]] std::vector<StageId> leaf_stages() const;

  /// Stage ids in a valid topological order (parents first). Stable:
  /// among ready stages, lower ids first — this is also the FIFO order.
  [[nodiscard]] const std::vector<StageId>& topological_order() const {
    return topo_order_;
  }

  /// All transitive descendants of `id` (the paper's SuccessorSet_i).
  [[nodiscard]] const std::vector<StageId>& successor_set(StageId id) const;

  /// The data-carrying input edges of stage `id`, in edge order; zero-byte
  /// parents (pure control dependencies) read nothing and are omitted.
  /// Non-allocating: hot paths walk these instead of task_inputs().
  [[nodiscard]] const std::vector<InputRead>& input_reads(StageId id) const;

  /// Input reads of task `task` of stage `id`, one per block: the
  /// input_reads() edges expanded (full parent blocks for narrow deps,
  /// per-task shuffle slices for wide deps).
  [[nodiscard]] std::vector<TaskInput> task_inputs(StageId id,
                                                   std::int32_t task) const;

  /// Distinct blocks accessed by the whole stage (union over tasks).
  [[nodiscard]] std::vector<BlockId> stage_input_blocks(StageId id) const;

  /// Total bytes task `task` of stage `id` reads.
  [[nodiscard]] Bytes task_input_bytes(StageId id, std::int32_t task) const;

  /// Longest chain length in stages (DAG depth).
  [[nodiscard]] int depth() const;

  /// Sum of all stage workloads (vCPU-time).
  [[nodiscard]] CpuWork total_workload() const;

  /// Total number of tasks across stages.
  [[nodiscard]] std::int64_t total_tasks() const;

  // -- dense block ordinals ------------------------------------------------
  // Every block of the DAG (one per RDD partition) has a dense ordinal in
  // [0, num_blocks()), assigned in ascending BlockId order: all blocks of
  // rdd 0 first, then rdd 1, ... Hot-path state (HDFS placement, copy
  // sets, reference records) is stored in flat arrays indexed by ordinal
  // instead of hash maps, and iterating ordinals ascending IS the sorted
  // block-id order the determinism discipline requires.

  /// Total number of blocks across all RDDs.
  [[nodiscard]] std::int64_t num_blocks() const {
    return block_offset_.empty() ? 0 : block_offset_.back();
  }

  /// Dense ordinal of `b`; `b` must be a valid block of this DAG.
  [[nodiscard]] std::int64_t block_ord(BlockId b) const {
    return block_offset_[static_cast<std::size_t>(b.rdd.value())] +
           b.partition;
  }

  /// Inverse of block_ord.
  [[nodiscard]] BlockId block_at(std::int64_t ord) const;

 private:
  friend class JobDagBuilder;

  std::string name_;
  std::vector<Stage> stages_;
  std::vector<Rdd> rdds_;
  std::vector<StageId> topo_order_;
  /// successor_sets_[i] = transitive descendants of stage i.
  std::vector<std::vector<StageId>> successor_sets_;
  /// input_reads_[i] = stage i's data-carrying input edges.
  std::vector<std::vector<InputRead>> input_reads_;
  /// block_offset_[r] = ordinal of rdd r's partition 0; one trailing
  /// entry holds num_blocks(). Built by JobDagBuilder::build().
  std::vector<std::int64_t> block_offset_;
};

/// Incremental builder; see workloads/ for usage examples.
class JobDagBuilder {
 public:
  explicit JobDagBuilder(std::string name);

  /// Registers an input RDD, materialized on HDFS before the job starts.
  /// `initially_cached` partitions begin resident in executor memory
  /// (the paper's Fig. 1 black blocks).
  RddId input_rdd(std::string name, std::int32_t partitions,
                  Bytes bytes_per_partition,
                  std::int32_t initially_cached = 0);

  struct StageParams {
    std::string name;
    std::vector<RddRef> inputs;
    std::int32_t num_tasks = 0;
    Cpus task_cpus{1};
    SimTime task_duration{};
    /// Size of each output partition; 0 for terminal stages whose output
    /// is written out / discarded.
    Bytes output_bytes_per_partition{};
    /// Whether the output RDD is persisted (enters the cache).
    bool cache_output = true;
    std::vector<double> duration_skew;
    /// Name of the output RDD; defaults to "<stage>.out".
    std::string output_name;
  };

  /// Adds a stage and its implicit output RDD; returns the stage id.
  /// Throws ConfigError on invalid fields or inputs, including a stage
  /// that reads one RDD through more than one edge (reference counts
  /// are kept per (stage, RDD) edge).
  StageId add_stage(const StageParams& params);

  /// Output RDD of a previously added stage (for wiring descendants).
  [[nodiscard]] RddId output_of(StageId stage) const;

  /// Marks the output of `stage` as not cacheable (pure shuffle data the
  /// application never persists).
  void set_output_cacheable(StageId stage, bool cacheable);

  /// Sets whether an RDD (typically a raw input the application never
  /// persists) enters the cache when read.
  void set_rdd_cacheable(RddId rdd, bool cacheable);

  /// Validates and produces the immutable JobDag. Throws ConfigError on
  /// structural problems. The builder must not be reused afterwards.
  [[nodiscard]] JobDag build();

 private:
  JobDag dag_;
  bool built_ = false;
};

}  // namespace dagon
