// Tests for multi-job batches (workloads/batch) and multi-tenant
// capacity fluctuation (SimConfig::capacity_phases).
#include <gtest/gtest.h>

#include "core/dagon.hpp"
#include "workloads/batch.hpp"

namespace dagon {
namespace {

Workload tiny_job(const std::string& name, SimTime duration, Cpus cpus) {
  JobDagBuilder b(name);
  const RddId in = b.input_rdd("in", 8, 4 * kMiB);
  const StageId first = b.add_stage({.name = "map",
                                     .inputs = {{in, DepKind::Narrow}},
                                     .num_tasks = 8,
                                     .task_cpus = cpus,
                                     .task_duration = duration,
                                     .output_bytes_per_partition = kMiB});
  b.add_stage({.name = "reduce",
               .inputs = {{b.output_of(first), DepKind::Shuffle}},
               .num_tasks = 4,
               .task_cpus = Cpus{1},
               .task_duration = duration / 2,
               .output_bytes_per_partition = Bytes{0}});
  return Workload{name, WorkloadCategory::Mixed, b.build()};
}

TEST(Batch, MergePreservesStructure) {
  const BatchWorkload batch = merge_workloads(
      {tiny_job("alpha", 2 * kSec, Cpus{1}), tiny_job("beta", 4 * kSec, Cpus{2})});
  EXPECT_EQ(batch.combined.name, "alpha+beta");
  EXPECT_EQ(batch.combined.dag.num_stages(), 4u);
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_EQ(batch.jobs[0].stages,
            (std::vector<StageId>{StageId(0), StageId(1)}));
  EXPECT_EQ(batch.jobs[1].stages,
            (std::vector<StageId>{StageId(2), StageId(3)}));
  // Jobs are disconnected components: no cross-job edges.
  for (const StageId sid : batch.jobs[0].stages) {
    for (const StageId child : batch.combined.dag.stage(sid).children) {
      EXPECT_LT(child.value(), 2);
    }
  }
  // Names are prefixed for readability.
  EXPECT_EQ(batch.combined.dag.stage(StageId(2)).name, "beta/map");
}

TEST(Batch, MergePreservesWorkloads) {
  const Workload a = tiny_job("alpha", 2 * kSec, Cpus{1});
  const Workload b = tiny_job("beta", 4 * kSec, Cpus{2});
  const BatchWorkload batch = merge_workloads({a, b});
  EXPECT_EQ(batch.combined.dag.total_workload(),
            a.dag.total_workload() + b.dag.total_workload());
}

TEST(Batch, MergeRejectsEmpty) {
  EXPECT_THROW(merge_workloads({}), ConfigError);
}

TEST(Batch, PerJobCompletionsAreConsistent) {
  const BatchWorkload batch = merge_workloads(
      {tiny_job("alpha", 2 * kSec, Cpus{1}), tiny_job("beta", 4 * kSec, Cpus{1})});
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 1;
  config.topology.cores_per_executor = Cpus{4};
  const RunMetrics m = run_workload(batch.combined, config).metrics;
  const auto completions = per_job_completions(batch, m);
  ASSERT_EQ(completions.size(), 2u);
  SimTime latest{};
  for (const JobCompletion& jc : completions) {
    EXPECT_GT(jc.finish, jc.first_launch);
    latest = std::max(latest, jc.finish);
  }
  EXPECT_EQ(latest, m.jct);
}

TEST(Batch, FairSharesAcrossJobsFifoSerializes) {
  // Two identical jobs on a tight cluster: FIFO runs alpha before beta
  // (beta's first launch is late); Fair interleaves (both start early).
  const BatchWorkload batch = merge_workloads(
      {tiny_job("alpha", 4 * kSec, Cpus{1}), tiny_job("beta", 4 * kSec, Cpus{1})});
  SimConfig config = single_executor_pool(Cpus{4});  // 8+8 tasks on 4 cores

  config.scheduler = SchedulerKind::Fifo;
  const auto fifo =
      per_job_completions(batch, run_workload(batch.combined,
                                              config).metrics);
  config.scheduler = SchedulerKind::Fair;
  const auto fair =
      per_job_completions(batch, run_workload(batch.combined,
                                              config).metrics);
  EXPECT_LT(fair[1].first_launch, fifo[1].first_launch);
  // Fair trades beta's start for alpha's finish.
  EXPECT_GE(fair[0].finish, fifo[0].finish);
}

TEST(Batch, DagonPrioritizesBiggerRemainingWork) {
  // A heavy and a light job: Dagon's pv ranks the heavy job's stages
  // first, so the light job finishes close to last (makespan-friendly).
  const BatchWorkload batch = merge_workloads(
      {tiny_job("light", kSec, Cpus{1}), tiny_job("heavy", 8 * kSec, Cpus{1})});
  SimConfig config = single_executor_pool(Cpus{4});
  config.scheduler = SchedulerKind::Dagon;
  const auto done =
      per_job_completions(batch, run_workload(batch.combined,
                                              config).metrics);
  // The heavy job starts first despite its higher stage ids.
  EXPECT_LE(done[1].first_launch, done[0].first_launch);
}

// --- capacity fluctuation ----------------------------------------------------

SimConfig capacity_cluster() {
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{4};
  return config;
}

Workload wide_job() {
  JobDagBuilder b("wide");
  const RddId in = b.input_rdd("in", 48, 4 * kMiB);
  b.add_stage({.name = "map",
               .inputs = {{in, DepKind::Narrow}},
               .num_tasks = 48,  // 3 waves on 16 cores, 6 on 8
               .task_cpus = Cpus{1},
               .task_duration = 4 * kSec,
               .output_bytes_per_partition = Bytes{0}});
  return Workload{"wide", WorkloadCategory::Mixed, b.build()};
}

TEST(CapacityPhases, ReservationSlowsTheJob) {
  const Workload w = wide_job();
  SimConfig config = capacity_cluster();
  const SimTime base = run_workload(w, config).metrics.jct;
  config.capacity_phases = {{SimTime{0}, 0.5}};
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.jct, base * 15 / 10);
  // Reservations never preempt: the first wave (launched before the
  // phase applied) runs to completion, then the full 8-core reservation
  // holds for the rest of the job.
  EXPECT_DOUBLE_EQ(m.reserved_cores.at(m.jct - SimTime{1}), 8.0);
  EXPECT_GE(m.reserved_cores.average(kSec, m.jct), 6.0);
}

TEST(CapacityPhases, ReleaseRestoresCapacity) {
  const Workload w = tiny_job("job", 4 * kSec, Cpus{1});
  SimConfig config = capacity_cluster();
  config.capacity_phases = {{SimTime{0}, 0.5}, {6 * kSec, 0.0}};
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_DOUBLE_EQ(m.reserved_cores.at(7 * kSec), 0.0);
  // Busy + reserved never exceed capacity.
  for (const auto& p : m.busy_cores.points()) {
    EXPECT_LE(p.value + m.reserved_cores.at(p.time), 16.0 + 1e-9);
  }
}

TEST(CapacityPhases, PendingReservationClaimsAsTasksFinish) {
  // Reserve 100%-ish mid-run: claims must wait for completions, never
  // preempt, and the job must still finish.
  const Workload w = tiny_job("job", 4 * kSec, Cpus{1});
  SimConfig config = capacity_cluster();
  config.capacity_phases = {{kSec, 0.75}, {10 * kSec, 0.0}};
  const RunMetrics m = run_workload(w, config).metrics;
  std::int64_t completed = 0;
  for (const TaskRecord& t : m.tasks) completed += t.cancelled ? 0 : 1;
  EXPECT_EQ(completed, w.dag.total_tasks());
  EXPECT_DOUBLE_EQ(m.busy_cores.value(), 0.0);
}

TEST(CapacityPhases, RejectsBadPhases) {
  const Workload w = tiny_job("job", kSec, Cpus{1});
  SimConfig config = capacity_cluster();
  config.capacity_phases = {{5 * kSec, 0.5}, {2 * kSec, 0.1}};  // unsorted
  EXPECT_THROW(run_workload(w, config), ConfigError);
  config.capacity_phases = {{SimTime{0}, 1.5}};  // fraction out of range
  EXPECT_THROW(run_workload(w, config), ConfigError);
}

TEST(CapacityPhases, DeterministicUnderFluctuation) {
  const Workload w = tiny_job("job", 2 * kSec, Cpus{1});
  SimConfig config = capacity_cluster();
  config.capacity_phases = {{kSec, 0.5}, {4 * kSec, 0.25}};
  config.duration_noise = 0.2;
  const SimTime a = run_workload(w, config).metrics.jct;
  const SimTime b = run_workload(w, config).metrics.jct;
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dagon
