// Experiment presets: the paper's testbed and case-study clusters, and
// the named scheduler+cache system combinations evaluated in §V.
#pragma once

#include <string>
#include <vector>

#include "sim/sim_config.hpp"

namespace dagon {

/// The §V-A testbed: 18 worker nodes (two racks), four 4-core executors
/// per node, 10 Gbps Ethernet, HDD storage, HDFS replication 3.
[[nodiscard]] SimConfig paper_testbed();

/// The §II-A case-study cluster: 7 machines, HDFS replication 1 — the
/// configuration that exposes the delay-scheduling pathology of
/// Figs. 3/4.
[[nodiscard]] SimConfig case_study_cluster();

/// The testbed with a representative failure model layered on: one
/// mid-run executor crash, 1% transient task failures, and mild random
/// cached-block loss. Base trace (scheduling, placement, noise draws) is
/// bit-identical to paper_testbed() until the first fault fires.
[[nodiscard]] SimConfig faulty_testbed();

/// The testbed under gray failures: heartbeat monitoring on, one rack
/// partitioned for 15 s mid-run, one executor degraded 3x for several
/// minutes, 1% transient task failures with blacklisting, and
/// speculation enabled so degraded attempts can be raced. Base trace is
/// bit-identical to paper_testbed() until the first gray event fires.
[[nodiscard]] SimConfig graybox_testbed();

/// The testbed as a heterogeneous, heavy-tailed cluster: a quarter of
/// the executors run 2x slow and a quarter 2x fast, 5% of attempts draw
/// a 6x heavy-tail duration, and the full tail-tolerance response is on
/// (hedged speculation with cancellation + critical-path escalation).
/// Base trace is NOT bit-identical to paper_testbed(): tiers reshape
/// every compute time from t=0.
[[nodiscard]] SimConfig tail_testbed();

/// One rack, one node, one `cores`-vCPU executor: the single pool of the
/// paper's Fig. 1/2 walk-through. Everything else is SimConfig's default.
[[nodiscard]] SimConfig single_executor_pool(Cpus cores);

/// A named (scheduler, cache, delay) combination.
struct SystemCombo {
  std::string label;
  SchedulerKind scheduler = SchedulerKind::Fifo;
  CachePolicyKind cache = CachePolicyKind::Lru;
  DelayKind delay = DelayKind::Native;
};

/// stock Spark: FIFO scheduling + LRU caching + native delay scheduling.
[[nodiscard]] SystemCombo stock_spark();
/// Graphene scheduling + LRU caching.
[[nodiscard]] SystemCombo graphene_lru();
/// Graphene scheduling + MRD caching (the paper's main competitor).
[[nodiscard]] SystemCombo graphene_mrd();
/// Dagon: priority-based assignment + LRP caching + sensitivity-aware
/// delay scheduling.
[[nodiscard]] SystemCombo dagon_full();

/// The Fig. 8 lineup, in paper order.
[[nodiscard]] std::vector<SystemCombo> figure8_systems();

/// The Fig. 11 lineup: {FIFO,Dagon} × {LRU,MRD,LRP} subsets the paper
/// compares (FIFO+LRU, FIFO+MRD, Dagon+MRD, Dagon+LRP).
[[nodiscard]] std::vector<SystemCombo> figure11_systems();

/// Applies a combo onto a base config.
[[nodiscard]] SimConfig apply_combo(SimConfig base, const SystemCombo& combo);

}  // namespace dagon
