// Cross-module integration tests: the joint scheduler/cache coupling
// the paper's architecture (Fig. 7) establishes, plus end-to-end
// consistency checks that span dag + cluster + cache + sched + sim.
#include <gtest/gtest.h>

#include <set>

#include "core/dagon.hpp"

namespace dagon {
namespace {

SimConfig small_cluster() {
  SimConfig config;
  config.topology.racks = 2;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{4};
  config.topology.cache_bytes_per_executor = 512 * kMiB;
  return config;
}

TEST(JointOperation, LrpSeesLivePriorityUpdates) {
  // Under Dagon+LRP the cache must track pv decay: after the run, every
  // block's reference priority is zero (all stages done, all refs
  // consumed) — verified indirectly by proactive evictions happening
  // while the job ran.
  const Workload w = make_connected_component(16);
  SimConfig config = small_cluster();
  config.scheduler = SchedulerKind::Dagon;
  config.cache = CachePolicyKind::Lrp;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.cache.proactive_evictions, 0);
  EXPECT_GT(m.cache.local_memory_hits, 0);
}

TEST(JointOperation, SchedulerOrderChangesCacheBehaviour) {
  // The same cache policy must make different decisions under FIFO and
  // Dagon — the incoherency the paper builds on. Verified via the
  // fetch-time totals (different schedules -> different hit patterns).
  const Workload w = make_connected_component(24);
  SimConfig fifo = small_cluster();
  fifo.cache = CachePolicyKind::Mrd;
  fifo.scheduler = SchedulerKind::Fifo;
  SimConfig dagon = fifo;
  dagon.scheduler = SchedulerKind::Dagon;
  const RunMetrics mf = run_workload(w, fifo).metrics;
  const RunMetrics md = run_workload(w, dagon).metrics;
  EXPECT_NE(mf.cache.local_memory_hits, md.cache.local_memory_hits);
}

TEST(JointOperation, CachePolicyDoesNotChangeTaskCount) {
  const Workload w = make_pagerank(16);
  std::set<std::size_t> task_counts;
  for (const CachePolicyKind policy :
       {CachePolicyKind::Lru, CachePolicyKind::Lrc, CachePolicyKind::Mrd,
        CachePolicyKind::Lrp}) {
    SimConfig config = small_cluster();
    config.cache = policy;
    task_counts.insert(run_workload(w, config).metrics.tasks.size());
  }
  // Work conservation: caching changes durations, never the work.
  EXPECT_EQ(task_counts.size(), 1u);
}

TEST(JointOperation, CacheOnlyEverHelps) {
  // With everything else fixed, enabling the cache must not make JCT
  // worse on a cache-friendly workload.
  KMeansParams params;
  params.partitions = 32;
  params.iterations = 5;
  const Workload w = make_kmeans(params);
  SimConfig off = small_cluster();
  off.cache_enabled = false;
  SimConfig on = small_cluster();
  on.cache = CachePolicyKind::Lrp;
  on.scheduler = SchedulerKind::Dagon;
  off.scheduler = SchedulerKind::Dagon;
  EXPECT_LE(run_workload(w, on).metrics.jct,
            run_workload(w, off).metrics.jct);
}

TEST(JointOperation, ProfilerNoiseNeverBreaksExecution) {
  // Bad estimates may reorder stages but every invariant must hold.
  const Workload w = make_decision_tree({.partitions = 16, .levels = 3});
  for (const double noise : {0.5, 2.0}) {
    ProfilerConfig pc;
    pc.noise = noise;
    pc.seed = 99;
    SimConfig config = small_cluster();
    config.scheduler = SchedulerKind::Dagon;
    const RunMetrics m = run_workload(w, config, AppProfiler(pc)).metrics;
    std::int64_t completed = 0;
    for (const TaskRecord& t : m.tasks) completed += t.cancelled ? 0 : 1;
    EXPECT_EQ(completed, w.dag.total_tasks());
    EXPECT_DOUBLE_EQ(m.busy_cores.value(), 0.0);
  }
}

TEST(JointOperation, HeterogeneousDemandNeverOversubscribes) {
  // Mixed d=1..4 tasks on 4-core executors: the per-executor free-core
  // accounting must never go negative — checked cluster-wide via the
  // busy-cores ceiling.
  const Workload w =
      make_logistic_regression({.partitions = 16, .iterations = 3});
  for (const SchedulerKind kind :
       {SchedulerKind::Fifo, SchedulerKind::Graphene, SchedulerKind::Dagon}) {
    SimConfig config = small_cluster();
    config.scheduler = kind;
    const RunMetrics m = run_workload(w, config).metrics;
    EXPECT_LE(m.busy_cores.max_over(SimTime{0}, m.jct),
              static_cast<double>(m.total_cores.count()));
  }
}

TEST(JointOperation, RunnerEndToEndAcrossTheWholeGrid) {
  // Smoke the full (scheduler x cache x delay) grid on one workload:
  // every combination completes with sane metrics.
  const Workload w = make_triangle_count({.partitions = 12});
  for (const SchedulerKind sched :
       {SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::CriticalPath,
        SchedulerKind::Graphene, SchedulerKind::Dagon}) {
    for (const CachePolicyKind cache :
         {CachePolicyKind::Lru, CachePolicyKind::Lrp}) {
      for (const DelayKind delay :
           {DelayKind::Native, DelayKind::SensitivityAware}) {
        SimConfig config = small_cluster();
        config.scheduler = sched;
        config.cache = cache;
        config.delay = delay;
        const RunMetrics m = run_workload(w, config).metrics;
        EXPECT_GT(m.jct, SimTime{0}) << scheduler_name(sched);
        EXPECT_GT(m.cpu_utilization(), 0.0);
        EXPECT_LE(m.cpu_utilization(), 1.0);
      }
    }
  }
}

TEST(JointOperation, ChromeTraceRoundTripsFromRunner) {
  const Workload w = make_example_dag();
  SimConfig config;
  config.topology.cores_per_executor = Cpus{16};
  const RunResult r = run_workload(w, config);
  const std::string json = chrome_trace_json(r.metrics, w.dag);
  EXPECT_GT(json.size(), 100u);
}

TEST(JointOperation, FairSchedulerBalancesTwoBranches) {
  // Two equal-work parallel chains: Fair must interleave them (neither
  // branch finishes an epoch ahead of the other).
  JobDagBuilder b("two-branches");
  const RddId in = b.input_rdd("in", 8, kMiB);
  const StageId a = b.add_stage({.name = "a",
                                 .inputs = {{in, DepKind::Narrow}},
                                 .num_tasks = 8,
                                 .task_cpus = Cpus{1},
                                 .task_duration = 4 * kSec});
  const StageId c = b.add_stage({.name = "b",
                                 .inputs = {{in, DepKind::Narrow}},
                                 .num_tasks = 8,
                                 .task_cpus = Cpus{1},
                                 .task_duration = 4 * kSec});
  b.add_stage({.name = "join",
               .inputs = {{b.output_of(a), DepKind::Shuffle},
                          {b.output_of(c), DepKind::Shuffle}},
               .num_tasks = 2,
               .task_cpus = Cpus{1},
               .task_duration = kSec});
  const Workload w{"two-branches", WorkloadCategory::Mixed, b.build()};
  SimConfig config = single_executor_pool(Cpus{8});
  config.scheduler = SchedulerKind::Fair;
  const RunMetrics m = run_workload(w, config).metrics;
  const double fin_a = to_seconds(m.stages[0].finish_time);
  const double fin_b = to_seconds(m.stages[1].finish_time);
  EXPECT_NEAR(fin_a, fin_b, 4.5);
}

}  // namespace
}  // namespace dagon
