// Table III bookkeeping folded over a finished SimDriver run: for every
// task launch, the stage chosen, each stage's remaining workload w_i and
// priority value pv_i (Eq. 6) after the launch, and the vCPUs left free
// on the pool. The run itself is the schedule, so Table III and the
// Fig. 2 diagrams measure the simulator rather than a second model.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "dag/job_dag.hpp"
#include "sim/metrics.hpp"

namespace dagon {

/// One Algorithm 1 assignment (Table III row).
struct AssignmentStep {
  int step = 0;
  SimTime time{};
  StageId chosen;
  /// Remaining workloads w_i and priority values pv_i AFTER the
  /// assignment, indexed by stage.
  std::vector<CpuWork> w_after;
  std::vector<CpuWork> pv_after;
  Cpus free_after{};
};

/// One row per record of `m.tasks` (launch order) of a run of `dag` on a
/// single `capacity`-vCPU pool. w_i drops by task_cpus·task_duration per
/// launch, as in JobState; free vCPUs count the records launched so far
/// that are still running at this launch.
[[nodiscard]] std::vector<AssignmentStep> assignment_steps(
    const JobDag& dag, const RunMetrics& m, Cpus capacity);

}  // namespace dagon
