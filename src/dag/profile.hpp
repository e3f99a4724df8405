// Job profile: the scheduler-visible estimate of per-stage task cost.
//
// In the paper, AppProfiler produces this from a pilot run on a small
// dataset plus online statistics (§IV). Schedulers consult the profile —
// never the simulator's ground truth — so estimation error degrades them
// realistically (exercised by the profiler-noise ablation bench).
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "dag/job_dag.hpp"

namespace dagon {

struct StageEstimate {
  /// Estimated base compute duration of one task.
  SimTime task_duration{};
  /// Per-task vCPU demand; Spark knows this exactly (spark.task.cpus),
  /// so it is not subject to profiling noise.
  Cpus task_cpus{1};
  /// Estimated bytes one task reads (for locality-penalty predictions).
  Bytes task_input_bytes{};
  /// Of those, bytes that are serialized RDD data and pay the ser/de
  /// cost on any non-process read (raw HDFS input does not) — this is
  /// what makes a stage locality-sensitive.
  Bytes task_serde_bytes{};
};

struct JobProfile {
  std::vector<StageEstimate> stages;  // indexed by stage id

  [[nodiscard]] const StageEstimate& stage(StageId id) const {
    DAGON_CHECK(id.valid() &&
                static_cast<std::size_t>(id.value()) < stages.size());
    return stages[static_cast<std::size_t>(id.value())];
  }

  /// Estimated stage workload w_i in vCPU-time units over `pending`
  /// tasks (Eq. 2 discussion; used for pv bookkeeping).
  [[nodiscard]] CpuWork workload(StageId id, std::int32_t pending) const {
    const StageEstimate& e = stage(id);
    return e.task_cpus * e.task_duration * pending;
  }
};

/// A perfect profile taken straight from the DAG's ground truth.
[[nodiscard]] inline JobProfile exact_profile(const JobDag& dag) {
  JobProfile p;
  p.stages.reserve(dag.num_stages());
  for (const Stage& s : dag.stages()) {
    StageEstimate e;
    e.task_duration = s.task_duration;
    e.task_cpus = s.task_cpus;
    for (const InputRead& r : dag.input_reads(s.id)) {
      e.task_input_bytes += r.total();
      if (!dag.rdd(r.rdd).is_input) e.task_serde_bytes += r.total();
    }
    p.stages.push_back(e);
  }
  return p;
}

}  // namespace dagon
