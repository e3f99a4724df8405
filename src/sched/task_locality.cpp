#include "sched/task_locality.hpp"

#include <algorithm>

namespace dagon {

TaskPreferences task_preferences(const JobDag& dag,
                                 const BlockManagerMaster& master,
                                 const Topology& topo, StageId s,
                                 std::int32_t index) {
  TaskPreferences prefs;
  const Stage& stage = dag.stage(s);
  for (const RddRef& ref : stage.inputs) {
    if (ref.kind != DepKind::Narrow) continue;
    const BlockId block{ref.rdd, index};
    for (const ExecutorId e : master.memory_holders(block)) {
      if (std::find(prefs.executors.begin(), prefs.executors.end(), e) ==
          prefs.executors.end()) {
        prefs.executors.push_back(e);
      }
      const NodeId n = topo.node_of(e);
      if (std::find(prefs.nodes.begin(), prefs.nodes.end(), n) ==
          prefs.nodes.end()) {
        prefs.nodes.push_back(n);
      }
    }
    for (const NodeId n : master.disk_holders(block)) {
      if (std::find(prefs.nodes.begin(), prefs.nodes.end(), n) ==
          prefs.nodes.end()) {
        prefs.nodes.push_back(n);
      }
    }
  }
  return prefs;
}

Locality task_locality_on(const JobDag& dag,
                          const BlockManagerMaster& master,
                          const Topology& topo, StageId s,
                          std::int32_t index, ExecutorId exec) {
  // Allocation-free fast path: this runs once per (pending task,
  // executor) pair in the scheduler's inner loop.
  const Stage& stage = dag.stage(s);
  const NodeId my_node = topo.node_of(exec);
  const RackId my_rack = topo.rack_of(my_node);

  bool any_pref = false;
  Locality best = Locality::Any;
  const auto improve = [&](Locality l) {
    if (static_cast<int>(l) < static_cast<int>(best)) best = l;
  };

  for (const RddRef& ref : stage.inputs) {
    if (ref.kind != DepKind::Narrow) continue;
    const BlockId block{ref.rdd, index};
    for (const ExecutorId holder : master.memory_holders(block)) {
      // A suspect's memory copy grants no preference: steering (or
      // delay-waiting) toward an executor that may be dying burns the
      // locality wait for nothing. Its durable disk copy still counts
      // below.
      if (master.executor_suspect(holder)) continue;
      any_pref = true;
      if (holder == exec) return Locality::Process;
      const NodeId n = topo.node_of(holder);
      improve(n == my_node ? Locality::Node
              : topo.rack_of(n) == my_rack ? Locality::Rack
                                           : Locality::Any);
    }
    const auto consider_disk = [&](NodeId n) {
      any_pref = true;
      improve(n == my_node ? Locality::Node
              : topo.rack_of(n) == my_rack ? Locality::Rack
                                           : Locality::Any);
    };
    for (const NodeId n : master.hdfs_replicas(block)) consider_disk(n);
    for (const NodeId n : master.produced_disk_nodes(block)) {
      consider_disk(n);
    }
  }
  if (!any_pref) return Locality::NoPref;
  return best;
}

std::vector<Locality> valid_locality_levels(const JobDag& dag,
                                            const BlockManagerMaster& master,
                                            const StageRuntime& stage) {
  const Stage& s = dag.stage(stage.id);
  // Pure-shuffle stages have no preferred locations at all: every task
  // is NO_PREF. Narrow-dep stages always have at least a disk location
  // for every pending task (the parent block exists by readiness), so
  // none of their tasks is NO_PREF.
  if (!stage.has_narrow) {
    return {Locality::NoPref, Locality::Any};
  }
  bool any_process = false;
  for (const std::int32_t index : stage.pending) {
    for (const RddRef& ref : s.inputs) {
      if (ref.kind != DepKind::Narrow) continue;
      if (master.any_healthy_memory_holder(BlockId{ref.rdd, index})) {
        any_process = true;
        break;
      }
    }
    if (any_process) break;
  }
  std::vector<Locality> levels;
  if (any_process) levels.push_back(Locality::Process);
  levels.push_back(Locality::Node);
  levels.push_back(Locality::Rack);
  levels.push_back(Locality::Any);
  return levels;
}

}  // namespace dagon
