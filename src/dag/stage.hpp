// Stage descriptor: a set of identical-shape tasks, one per output
// partition, with the paper's per-task resource demand d_i and duration.
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/strong_id.hpp"
#include "common/units.hpp"
#include "dag/dependency.hpp"

namespace dagon {

struct Stage {
  StageId id;
  std::string name;

  /// RDDs this stage's tasks read.
  std::vector<RddRef> inputs;
  /// RDD this stage materializes; task k writes block (output, k).
  RddId output;

  std::int32_t num_tasks = 0;
  /// Per-task vCPU demand (the paper's d_i).
  Cpus task_cpus{1};
  /// Base compute duration of one task, excluding input fetch time.
  SimTime task_duration{};
  /// Optional per-task duration multipliers (stragglers, skew). Empty
  /// means uniform 1.0. Size must equal num_tasks when present.
  std::vector<double> duration_skew;

  /// Filled by JobDagBuilder::build(): stages producing our inputs /
  /// consuming our output.
  std::vector<StageId> parents;
  std::vector<StageId> children;

  /// Compute duration of task `t` including skew.
  [[nodiscard]] SimTime task_compute_time(std::int32_t t) const {
    if (duration_skew.empty()) return task_duration;
    return scale_time(task_duration,
                      duration_skew[static_cast<std::size_t>(t)]);
  }

  /// The paper's stage workload w_i (Eq. 2 discussion): total resource
  /// requirement in vCPU-time units, summed over tasks.
  [[nodiscard]] CpuWork workload() const {
    CpuWork w{};
    for (std::int32_t t = 0; t < num_tasks; ++t) {
      w += task_cpus * task_compute_time(t);
    }
    return w;
  }
};

/// One input read performed by a task: which block and how many bytes of
/// it this task pulls (full block for narrow deps, a shuffle slice for
/// wide deps).
struct TaskInput {
  BlockId block;
  Bytes bytes{};
  DepKind kind = DepKind::Narrow;
};

/// One data-carrying input edge of a stage, in the shape every task
/// reads it: task t reads partitions [first(t), first(t) + count) of
/// `rdd`, `bytes` from each. A narrow edge is the single block t; a
/// shuffle edge is every parent partition at the same slice size, so a
/// consumer that only needs per-source totals can cost it per edge
/// instead of per block.
struct InputRead {
  RddId rdd;
  DepKind kind = DepKind::Narrow;
  /// Bytes pulled from each block read (whole block or shuffle slice).
  Bytes bytes{};
  /// Blocks read per task: 1 (narrow) or the parent's partition count.
  std::int32_t count = 0;

  [[nodiscard]] std::int32_t first(std::int32_t task) const {
    return kind == DepKind::Narrow ? task : 0;
  }
  /// Bytes one task reads through this edge.
  [[nodiscard]] Bytes total() const { return bytes * count; }
};

}  // namespace dagon
