#include "core/assignment_trace.hpp"

#include <algorithm>

namespace dagon {

std::vector<AssignmentStep> assignment_steps(const JobDag& dag,
                                             const RunMetrics& m,
                                             Cpus capacity) {
  const auto at = [](StageId id) {
    return static_cast<std::size_t>(id.value());
  };
  std::vector<CpuWork> w(dag.num_stages());
  for (const Stage& s : dag.stages()) w[at(s.id)] = s.workload();

  std::vector<AssignmentStep> steps;
  steps.reserve(m.tasks.size());
  for (std::size_t k = 0; k < m.tasks.size(); ++k) {
    const TaskRecord& t = m.tasks[k];
    const Stage& s = dag.stage(t.stage);
    w[at(t.stage)] =
        std::max(CpuWork{0}, w[at(t.stage)] - s.task_cpus * s.task_duration);

    AssignmentStep step;
    step.step = static_cast<int>(k) + 1;
    step.time = t.launch;
    step.chosen = t.stage;
    step.w_after = w;
    step.pv_after.reserve(dag.num_stages());
    for (const Stage& each : dag.stages()) {
      CpuWork pv = w[at(each.id)];
      for (const StageId succ : dag.successor_set(each.id)) pv += w[at(succ)];
      step.pv_after.push_back(pv);
    }
    step.free_after = capacity;
    for (std::size_t j = 0; j <= k; ++j) {
      if (m.tasks[j].finish > t.launch) {
        step.free_after -= dag.stage(m.tasks[j].stage).task_cpus;
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace dagon
