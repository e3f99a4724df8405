// Task locality classification.
//
// Mirrors Spark's preferred-location logic: a task's preferences come
// from its narrow-dependency inputs — the executors holding those blocks
// in memory (process-local) and the nodes holding them on disk
// (node-local). Pure-shuffle tasks have no preference (NO_PREF) and can
// launch anywhere without waiting.
#pragma once

#include <vector>

#include "cache/block_manager_master.hpp"
#include "cluster/locality.hpp"
#include "sched/job_state.hpp"

namespace dagon {

struct TaskPreferences {
  /// Executors holding a narrow-dep input block in memory.
  std::vector<ExecutorId> executors;
  /// Nodes holding a narrow-dep input block (memory or disk).
  std::vector<NodeId> nodes;

  [[nodiscard]] bool empty() const {
    return executors.empty() && nodes.empty();
  }
};

/// Preferred locations of task `index` of stage `s` right now.
[[nodiscard]] TaskPreferences task_preferences(
    const JobDag& dag, const BlockManagerMaster& master,
    const Topology& topo, StageId s, std::int32_t index);

/// Locality level task `index` of stage `s` would run at on `exec`.
[[nodiscard]] Locality task_locality_on(const JobDag& dag,
                                        const BlockManagerMaster& master,
                                        const Topology& topo, StageId s,
                                        std::int32_t index, ExecutorId exec);

/// The locality levels that can occur for stage `s`'s pending tasks,
/// best-first — Spark's TaskSetManager::myLocalityLevels. A taskset
/// whose tasks have no preferences yields {NoPref, Any}.
[[nodiscard]] std::vector<Locality> valid_locality_levels(
    const JobDag& dag, const BlockManagerMaster& master,
    const StageRuntime& stage);

}  // namespace dagon
