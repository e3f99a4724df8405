// The paper's running example (Fig. 1): a 4-stage DAG with heterogeneous
// per-task demands and durations, reconstructed from the paper's own
// numbers:
//
//   stage 1: A -> B   3 tasks, <4 vCPU, 4 min>   w1 = 48
//   stage 2: C -> D   3 tasks, <6 vCPU, 2 min>   w2 = 36
//   stage 3: D -> E   2 tasks, <3 vCPU, 4 min>   w3 = 24  (shuffle)
//   stage 4: B,E -> F 1 task,  <4 vCPU, 1 min>   w4 = 4   (shuffle)
//
// giving pv1 = w1+w4 = 52 and pv2 = w2+w3+w4 = 64, exactly the initial
// values of Table III. RDD A's three partitions start cached (the black
// blocks); the FIFO schedule on one 16-vCPU executor finishes at 13 min,
// the DAG-aware one at 9 min (Fig. 2).
#pragma once

#include "workloads/workload.hpp"

namespace dagon {

struct ExampleDagParams {
  /// Minutes are mapped to this many simulated time units so the same
  /// structure also serves fast unit tests.
  SimTime minute = kMinute;
  /// Block size for all RDD partitions (kept small: Fig. 1/2 reasoning
  /// ignores fetch costs). `Bytes{0}` makes every fetch cost exactly 0,
  /// which Table III and Fig. 2 use; Table I's cache trace sizes its
  /// cache in blocks and needs more than 0.
  Bytes block_bytes = kMiB;
  /// Partitions of A initially resident in memory (3 in the paper).
  std::int32_t cached_a_partitions = 3;
};

[[nodiscard]] Workload make_example_dag(const ExampleDagParams& params = {});

}  // namespace dagon
