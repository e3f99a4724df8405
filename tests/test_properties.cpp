// Property-based tests: sweep random DAGs (TEST_P over seeds) and assert
// the simulator's invariants hold under every scheduler/cache
// combination — resource conservation, dependency order, cache-stat
// consistency, and bit-exact determinism.
#include <gtest/gtest.h>

#include "core/dagon.hpp"

namespace dagon {
namespace {

SimConfig property_cluster(std::uint64_t seed) {
  SimConfig config;
  config.topology.racks = 2;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{8};
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.hdfs.replication = 2;
  config.seed = seed;
  return config;
}

struct PropertyCase {
  std::uint64_t seed;
  SchedulerKind scheduler;
  CachePolicyKind cache;
  DelayKind delay;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  return std::string("seed") + std::to_string(info.param.seed) + "_" +
         scheduler_name(info.param.scheduler) + "_" +
         cache_policy_name(info.param.cache) + "_" +
         (info.param.delay == DelayKind::Native ? "native" : "aware");
}

class SimInvariants : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static RandomDagParams dag_params() {
    RandomDagParams p;
    p.max_stages = 14;
    p.max_tasks = 12;
    p.max_cpus = Cpus{4};
    return p;
  }
};

TEST_P(SimInvariants, HoldOnRandomDags) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed);
  const Workload w = make_random_dag(rng, dag_params());

  SimConfig config = property_cluster(param.seed);
  config.scheduler = param.scheduler;
  config.cache = param.cache;
  config.delay = param.delay;

  const RunMetrics m = run_workload(w, config).metrics;

  // 1. Every task ran exactly once (no speculation configured).
  std::int64_t completed = 0;
  for (const TaskRecord& t : m.tasks) {
    if (!t.cancelled) ++completed;
  }
  EXPECT_EQ(completed, w.dag.total_tasks());

  // 2. Resource conservation: busy cores within [0, capacity], back to 0.
  EXPECT_DOUBLE_EQ(m.busy_cores.value(), 0.0);
  EXPECT_LE(m.busy_cores.max_over(SimTime{0}, m.jct),
            static_cast<double>(m.total_cores.count()));
  EXPECT_DOUBLE_EQ(m.running_tasks.value(), 0.0);

  // 3. Stage dependency order.
  for (const StageRecord& s : m.stages) {
    for (const StageId p : w.dag.stage(s.id).parents) {
      EXPECT_GE(s.first_launch,
                m.stages[static_cast<std::size_t>(p.value())].finish_time);
    }
  }

  // 4. JCT is bounded below by the DAG's critical path through actual
  //    compute times (fetches only add) and by its total work spread
  //    over every core: makespan_lower_bound is the max of the two.
  EXPECT_GE(m.jct, makespan_lower_bound(w.dag, m.total_cores));

  // 5. Cache accounting is consistent.
  EXPECT_EQ(m.cache.local_memory_hits + m.cache.other_memory_hits +
                m.cache.disk_reads,
            m.cache.total_reads);
  EXPECT_GE(m.cache.hit_ratio(), 0.0);
  EXPECT_LE(m.cache.hit_ratio(), 1.0);

  // 6. Locality histogram covers every attempt, and the records are in
  //    launch order (the assignment_steps fold relies on it).
  std::int64_t launches = 0;
  for (const std::int64_t c : m.locality_histogram) launches += c;
  EXPECT_EQ(launches, static_cast<std::int64_t>(m.tasks.size()));
  for (std::size_t k = 1; k < m.tasks.size(); ++k) {
    EXPECT_LE(m.tasks[k - 1].launch, m.tasks[k].launch) << "record " << k;
  }

  // 7. Determinism: rerunning is bit-identical.
  Rng rng2(param.seed);
  const Workload w2 = make_random_dag(rng2, dag_params());
  const RunMetrics m2 = run_workload(w2, config).metrics;
  EXPECT_EQ(m.jct, m2.jct);
  EXPECT_EQ(m.cache.local_memory_hits, m2.cache.local_memory_hits);
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  const SchedulerKind schedulers[] = {
      SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::CriticalPath,
      SchedulerKind::Graphene, SchedulerKind::Dagon};
  const CachePolicyKind caches[] = {CachePolicyKind::Lru,
                                    CachePolicyKind::Lrc,
                                    CachePolicyKind::Mrd,
                                    CachePolicyKind::Lrp};
  std::uint64_t seed = 100;
  for (const SchedulerKind s : schedulers) {
    for (const CachePolicyKind c : caches) {
      cases.push_back(PropertyCase{seed++, s, c,
                                   seed % 2 ? DelayKind::Native
                                            : DelayKind::SensitivityAware});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SimInvariants,
                         ::testing::ValuesIn(property_cases()), case_name);

// --- cache-policy invariants under random reference patterns --------------------

class PolicyInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyInvariants, RetentionAndPrefetchAgree) {
  Rng rng(GetParam());
  RandomDagParams p;
  p.max_stages = 10;
  const Workload w = make_random_dag(rng, p);
  ReferenceOracle oracle(w.dag);
  oracle.set_current_stage(w.dag.stages().front().id);

  for (const CachePolicyKind kind :
       {CachePolicyKind::Mrd, CachePolicyKind::Lrp}) {
    const auto policy = make_cache_policy(kind);
    for (const Rdd& rdd : w.dag.rdds()) {
      for (std::int32_t part = 0; part < rdd.num_partitions; ++part) {
        const BlockId block{rdd.id, part};
        const auto prefetch = policy->prefetch_priority(block, oracle);
        const double retention =
            policy->retention_priority(block, SimTime{0}, oracle);
        if (prefetch.has_value()) {
          // The two scales must agree, or prefetch admission thrashes.
          EXPECT_DOUBLE_EQ(*prefetch, retention)
              << cache_policy_name(kind);
          EXPECT_FALSE(policy->is_dead(block, oracle));
        } else {
          // Nothing prefetchable is worth keeping either (dead), except
          // LRP's zero-priority convention.
          EXPECT_TRUE(policy->is_dead(block, oracle) ||
                      oracle.reference_priority(block) <= CpuWork{0});
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyInvariants,
                         ::testing::Range<std::uint64_t>(50, 60));

// --- block-level reference consumption ------------------------------------------

class OracleInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleInvariants, RefCountsNeverGoNegativeAndReachZero) {
  Rng rng(GetParam());
  RandomDagParams p;
  p.max_stages = 12;
  p.max_tasks = 8;
  const Workload w = make_random_dag(rng, p);
  ReferenceOracle oracle(w.dag);

  // Launch every task of every stage in topological order.
  for (const StageId sid : w.dag.topological_order()) {
    const Stage& s = w.dag.stage(sid);
    for (std::int32_t t = 0; t < s.num_tasks; ++t) {
      oracle.on_task_launched(sid, t);
    }
    oracle.mark_stage_finished(sid);
  }
  for (const Rdd& rdd : w.dag.rdds()) {
    for (std::int32_t part = 0; part < rdd.num_partitions; ++part) {
      const BlockId block{rdd.id, part};
      EXPECT_EQ(oracle.remaining_ref_count(block), 0);
      EXPECT_EQ(oracle.reference_priority(block), CpuWork{0});
      EXPECT_EQ(oracle.stage_distance(block), ReferenceOracle::kNeverUsed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleInvariants,
                         ::testing::Range<std::uint64_t>(200, 210));

// --- successor sets (the paper's SuccessorSet_i) --------------------------------

class SuccessorSetInvariants
    : public ::testing::TestWithParam<std::uint64_t> {};

// JobDagBuilder::build() unions the children's sets in reverse
// topological order; an independent DFS over `children` must reach
// exactly the same stages, and the stored list must be ascending with
// no duplicates (the order pv sums and Table III walk it in).
TEST_P(SuccessorSetInvariants, EqualsAscendingDfsClosure) {
  Rng rng(GetParam());
  RandomDagParams p;
  p.min_stages = 8;
  p.max_stages = 40;
  p.max_parents = 4;
  p.max_tasks = 2;
  const Workload w = make_random_dag(rng, p);
  const JobDag& dag = w.dag;
  for (const Stage& s : dag.stages()) {
    std::vector<char> reached(dag.num_stages(), 0);
    std::vector<StageId> stack(s.children.begin(), s.children.end());
    while (!stack.empty()) {
      const StageId id = stack.back();
      stack.pop_back();
      char& seen = reached[static_cast<std::size_t>(id.value())];
      if (seen != 0) continue;
      seen = 1;
      const std::vector<StageId>& next = dag.stage(id).children;
      stack.insert(stack.end(), next.begin(), next.end());
    }
    std::vector<StageId> closure;
    for (std::size_t i = 0; i < reached.size(); ++i) {
      if (reached[i] != 0) closure.emplace_back(static_cast<std::int32_t>(i));
    }
    EXPECT_EQ(dag.successor_set(s.id), closure) << "stage " << s.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuccessorSetInvariants,
                         ::testing::Range<std::uint64_t>(300, 310));

}  // namespace
}  // namespace dagon
