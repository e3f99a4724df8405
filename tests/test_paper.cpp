// Paper-level integration tests: small-scale versions of the paper's
// experiments with directional assertions. These pin the *shape* of
// every headline claim (who wins, in which regime) so a regression in
// any subsystem surfaces as a reversed comparison, not just a number.
#include <gtest/gtest.h>

#include "core/dagon.hpp"

namespace dagon {
namespace {

/// A small paper-testbed-like cluster that keeps runtimes in the
/// millisecond range for CI.
SimConfig mini_testbed() {
  SimConfig config = paper_testbed();
  // 24 vCPUs vs ~50-150 vCPU-wide stages: multi-wave execution, so
  // stage-selection policy actually matters (as on the real testbed).
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 3;
  config.topology.executors_per_node = 2;
  config.topology.cache_bytes_per_executor = 512 * kMiB;
  return config;
}

WorkloadScale mini_scale() { return WorkloadScale{0.5}; }

// --- Fig. 2: the running example --------------------------------------------

/// capacity·jct minus the vCPU-time the tasks occupied (Fig. 2's
/// fragmentation) on one 16-vCPU pool, in vCPU-minutes.
std::int64_t idle_vcpu_minutes(const JobDag& dag, const RunMetrics& m) {
  CpuWork busy{};
  for (const TaskRecord& t : m.tasks) {
    busy += dag.stage(t.stage).task_cpus * (t.finish - t.launch);
  }
  return (Cpus{16} * m.jct - busy) / kMinute;
}

// The Fig. 1 DAG with zero-byte blocks (every fetch costs exactly 0) on
// one 16-vCPU executor.
TEST(PaperFig2, DagAwareBeatsFifoByPaperMargin) {
  const Workload w = make_example_dag({.block_bytes = Bytes{0}});
  const SimConfig pool = single_executor_pool(Cpus{16});
  const RunMetrics fifo = run_system(w, stock_spark(), pool).metrics;
  const RunMetrics dagon = run_system(w, dagon_full(), pool).metrics;
  EXPECT_EQ(fifo.jct, 13 * kMinute);
  EXPECT_EQ(dagon.jct, 9 * kMinute);
  // Fig. 2(a): FIFO wastes 4 vCPUs from t=0 to t=4 on top of the tail.
  EXPECT_EQ(idle_vcpu_minutes(w.dag, fifo), 96);
  EXPECT_EQ(idle_vcpu_minutes(w.dag, dagon), 32);
}

TEST(PaperFig2, DagonMatchesLowerBoundShape) {
  const Workload w = make_example_dag({.block_bytes = Bytes{0}});
  const RunMetrics dagon =
      run_system(w, dagon_full(), single_executor_pool(Cpus{16})).metrics;
  const SimTime bound = makespan_lower_bound(w.dag, Cpus{16});
  EXPECT_EQ(bound, 7 * kMinute);
  // 9 min vs the 7-min bound: within 30% of optimal for this DAG.
  EXPECT_LE(dagon.jct, bound * 13 / 10);
}

// --- Fig. 3: locality-wait sensitivity ----------------------------------------

class Fig3KMeans : public ::testing::Test {
 protected:
  static RunResult run_with_wait(SimTime wait) {
    KMeansParams params;
    // 240 feature partitions over 28 executors: ~8.6 cached blocks per
    // executor. The fractional remainder leaves a few executors with
    // longer process-local queues; without delay the others steal those
    // tasks at node/rack level and pay the ~9x deserialization penalty
    // (the paper's Fig. 3 mechanism).
    params.partitions = 240;
    params.iterations = 4;
    const Workload w = make_kmeans(params);
    SimConfig config = case_study_cluster();
    config.waits = LocalityWaits::uniform(wait);
    return run_workload(w, config);
  }
};

TEST_F(Fig3KMeans, DelaySchedulingSpeedsUpIterationStages) {
  const RunResult no_delay = run_with_wait(SimTime{0});
  const RunResult delay = run_with_wait(3 * kSec);
  // Iteration stages (1..4) read cached 64 MiB features: process
  // locality matters ~15x, so the 3 s wait pays off handsomely.
  double iter_no_delay = 0.0;
  double iter_delay = 0.0;
  for (std::int32_t s = 1; s <= 4; ++s) {
    iter_no_delay += no_delay.metrics.stage_duration_sec(StageId(s));
    iter_delay += delay.metrics.stage_duration_sec(StageId(s));
  }
  EXPECT_LT(iter_delay, iter_no_delay * 0.8)
      << "delay=" << iter_delay << "s no-delay=" << iter_no_delay << "s";
}

TEST_F(Fig3KMeans, LongDelaySlowsScanStage) {
  const RunResult no_delay = run_with_wait(SimTime{0});
  const RunResult delay = run_with_wait(5 * kSec);
  // Stage 0 scans raw HDFS blocks (rep=1, skewed): waiting for
  // node-local slots only idles executors (paper: 15 s -> 27 s with a
  // 3+ s wait; our executors refresh the 3 s ladder within a 7 s scan
  // task, so the idling shows from 5 s up).
  EXPECT_GT(delay.metrics.stage_duration_sec(StageId(0)),
            no_delay.metrics.stage_duration_sec(StageId(0)) * 1.1);
}

TEST_F(Fig3KMeans, DelayImprovesIterationLocality) {
  const RunResult no_delay = run_with_wait(SimTime{0});
  const RunResult delay = run_with_wait(3 * kSec);
  EXPECT_GT(delay.metrics.high_locality_fraction(),
            no_delay.metrics.high_locality_fraction());
}

// --- Fig. 8: end-to-end system comparison -------------------------------------

TEST(PaperFig8, DagonNeverLosesToStockSparkAndWinsOverall) {
  double stock_total = 0.0;
  double dagon_total = 0.0;
  for (const WorkloadId id : sparkbench_suite()) {
    const Workload w = make_workload(id, mini_scale());
    const double stock =
        to_seconds(run_system(w, stock_spark(), mini_testbed()).metrics.jct);
    const double dagon =
        to_seconds(run_system(w, dagon_full(), mini_testbed()).metrics.jct);
    // KMeans is a pure chain of uniform d=1 stages: on the symmetric
    // mini cluster every scheduler produces the same schedule, so allow
    // equality per-workload and require a strict win on the suite.
    EXPECT_LE(dagon, stock * 1.001) << workload_name(id);
    stock_total += stock;
    dagon_total += dagon;
  }
  EXPECT_LT(dagon_total, stock_total * 0.95);
}

TEST(PaperFig8, DagonBeatsGrapheneMrdOnAverage) {
  double graphene_total = 0.0;
  double dagon_total = 0.0;
  for (const WorkloadId id : sparkbench_suite()) {
    const Workload w = make_workload(id, mini_scale());
    graphene_total +=
        to_seconds(run_system(w, graphene_mrd(), mini_testbed()).metrics.jct);
    dagon_total +=
        to_seconds(run_system(w, dagon_full(), mini_testbed()).metrics.jct);
  }
  EXPECT_LT(dagon_total, graphene_total);
}

TEST(PaperFig8, DagonImprovesCpuUtilization) {
  double stock_util = 0.0;
  double dagon_util = 0.0;
  for (const WorkloadId id : sparkbench_suite()) {
    const Workload w = make_workload(id, mini_scale());
    stock_util +=
        run_system(w, stock_spark(), mini_testbed()).metrics.cpu_utilization();
    dagon_util +=
        run_system(w, dagon_full(), mini_testbed()).metrics.cpu_utilization();
  }
  EXPECT_GT(dagon_util, stock_util);
}

// --- Fig. 9: task assignment alone (caching disabled) --------------------------

TEST(PaperFig9, PriorityAssignmentBeatsFifoWithCachingOff) {
  SimConfig base = mini_testbed();
  base.cache_enabled = false;
  for (const WorkloadId id :
       {WorkloadId::DecisionTree, WorkloadId::LogisticRegression}) {
    const Workload w = make_workload(id, mini_scale());
    SimConfig fifo = base;
    fifo.scheduler = SchedulerKind::Fifo;
    SimConfig dagon = base;
    dagon.scheduler = SchedulerKind::Dagon;
    const double jct_fifo = to_seconds(run_workload(w, fifo).metrics.jct);
    const double jct_dagon = to_seconds(run_workload(w, dagon).metrics.jct);
    EXPECT_LT(jct_dagon, jct_fifo) << workload_name(id);
  }
}

// --- Fig. 10: sensitivity-aware delay scheduling --------------------------------

TEST(PaperFig10, SensitivityAwareReducesJctAndHighLocalityLaunches) {
  KMeansParams params;
  params.partitions = 240;  // multi-wave scans: idle executors appear
  params.iterations = 4;
  const Workload w = make_kmeans(params);
  SimConfig base = case_study_cluster();
  base.cache_enabled = true;

  SimConfig native = base;
  native.delay = DelayKind::Native;
  SimConfig aware = base;
  aware.delay = DelayKind::SensitivityAware;

  const RunMetrics m_native = run_workload(w, native).metrics;
  const RunMetrics m_aware = run_workload(w, aware).metrics;
  EXPECT_LT(m_aware.jct, m_native.jct);
  // Fewer tasks wait for high locality (the scan stages launch anywhere).
  EXPECT_LE(m_aware.locality_count(Locality::Process) +
                m_aware.locality_count(Locality::Node),
            m_native.locality_count(Locality::Process) +
                m_native.locality_count(Locality::Node));
  EXPECT_GE(m_aware.cpu_utilization(), m_native.cpu_utilization());
}

// --- Fig. 11: cache policy comparison -------------------------------------------

TEST(PaperFig11, MrdBeatsLruUnderFifo) {
  for (const WorkloadId id : cache_study_suite()) {
    const Workload w = make_workload(id, mini_scale());
    SimConfig base = mini_testbed();
    base.topology.cache_bytes_per_executor = 2 * kGiB;  // ~66% of the
    // working set: enough to matter, small enough to force evictions
    const auto systems = figure11_systems();
    const double lru =
        run_system(w, systems[0], base).metrics.cache.hit_ratio();
    const double mrd =
        run_system(w, systems[1], base).metrics.cache.hit_ratio();
    EXPECT_GE(mrd, lru) << workload_name(id);
  }
}

TEST(PaperFig11, DagAwarePoliciesBeatLruInHitRatio) {
  // Paper Fig. 11(a) reports LRP +11% hit ratio over MRD under Dagon.
  // Our LRP instead trades away cheap out-adjacency hits to keep the 4x
  // larger in-adjacency blocks hot: its hit *count* is lower but its
  // JCT is far better (see LrpJctBeatsMrdUnderDagon). What must hold is
  // that every DAG-aware policy dominates LRU, which hoards dead
  // vertex-state blocks.
  for (const WorkloadId id : cache_study_suite()) {
    const Workload w = make_workload(id, mini_scale());
    SimConfig base = mini_testbed();
    base.topology.cache_bytes_per_executor = 2 * kGiB;
    const auto systems = figure11_systems();
    const double lru =
        run_system(w, systems[0], base).metrics.cache.hit_ratio();
    const double mrd =
        run_system(w, systems[2], base).metrics.cache.hit_ratio();
    const double lrp =
        run_system(w, systems[3], base).metrics.cache.hit_ratio();
    EXPECT_GT(mrd, lru) << workload_name(id);
    EXPECT_GT(lrp, lru) << workload_name(id);
  }
}

TEST(PaperFig11, LrpJctBeatsMrdUnderDagon) {
  double mrd_total = 0.0;
  double lrp_total = 0.0;
  for (const WorkloadId id : cache_study_suite()) {
    const Workload w = make_workload(id, mini_scale());
    SimConfig base = mini_testbed();
    base.topology.cache_bytes_per_executor = 2 * kGiB;
    const auto systems = figure11_systems();
    mrd_total += to_seconds(run_system(w, systems[2], base).metrics.jct);
    lrp_total += to_seconds(run_system(w, systems[3], base).metrics.jct);
  }
  EXPECT_LT(lrp_total, mrd_total);
}

// --- joint operation: the paper's central claim ---------------------------------

TEST(PaperJoint, LrpPrioritiesTrackSchedulerState) {
  // Run Dagon+LRP on the Fig. 1 DAG and verify the cache saw priority
  // updates: dead blocks reclaimed, hot blocks hit.
  const Workload w = make_example_dag();
  SimConfig config;
  config.topology.cores_per_executor = Cpus{16};
  config.topology.cache_bytes_per_executor = 3 * kMiB;
  config.scheduler = SchedulerKind::Dagon;
  config.cache = CachePolicyKind::Lrp;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.cache.local_memory_hits, 0);
  EXPECT_GT(m.cache.proactive_evictions, 0);  // dead blocks reclaimed
}

}  // namespace
}  // namespace dagon
