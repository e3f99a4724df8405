// Differential tests for the per-edge shuffle-read path. A launch costs
// a shuffle parent from BlockManagerMaster's per-RDD tallies
// (disk_only_read) when the read provably touches no cache state, and
// the oracle counts shuffle references once per (stage, parent RDD).
// Both are checked here against block-by-block references that live in
// this file only:
//   * at every shuffle edge a launch reads, the tally answer (or its
//     absence) must equal a fold of the per-block inputs + lookup(),
//     taken at that same instant of the run;
//   * after every reference update (launch or restore), the oracle's
//     queries must equal a brute-force recount from the set of tasks
//     whose references are consumed.
// Each random DAG is rebuilt with its HDFS inputs partly cached at t=0
// and randomly persisted, so shuffle parents with memory copies (the
// per-block fallback) and without them both occur.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/dagon.hpp"

namespace dagon {
namespace {

using Counts = std::array<std::int32_t, 7>;  // indexed by BlockSource

/// Random DAG of `seed`, its input RDDs re-registered with a random
/// number of initially cached partitions and a random persist flag.
JobDag varied_random_dag(std::uint64_t seed) {
  Rng rng(seed);
  RandomDagParams params;
  params.max_stages = 16;
  params.max_tasks = 24;
  const Workload w = make_random_dag(rng, params);
  JobDagBuilder b("varied");
  // Re-adding in RDD-id order keeps every id: inputs come first, then
  // each stage's output in stage order.
  for (const Rdd& r : w.dag.rdds()) {
    if (r.is_input) {
      const RddId id = b.input_rdd(
          r.name, r.num_partitions, r.bytes_per_partition,
          static_cast<std::int32_t>(rng.uniform_range(0, r.num_partitions)));
      b.set_rdd_cacheable(id, rng.bernoulli(0.5));
      EXPECT_EQ(id, r.id);
      continue;
    }
    const Stage& s = w.dag.stage(*w.dag.producer_of(r.id));
    const StageId sid =
        b.add_stage({.name = s.name,
                     .inputs = s.inputs,
                     .num_tasks = s.num_tasks,
                     .task_cpus = s.task_cpus,
                     .task_duration = s.task_duration,
                     .output_bytes_per_partition = r.bytes_per_partition,
                     .cache_output = r.cacheable});
    EXPECT_EQ(b.output_of(sid), r.id);
  }
  return b.build();
}

/// The per-block reads of one task, derived straight from the stage's
/// edges: block `task` whole for narrow, a slice of every parent block
/// for shuffle; zero-byte parents read nothing.
std::vector<TaskInput> reference_inputs(const JobDag& dag, StageId id,
                                        std::int32_t task) {
  const Stage& s = dag.stage(id);
  std::vector<TaskInput> out;
  for (const RddRef& ref : s.inputs) {
    const Rdd& parent = dag.rdd(ref.rdd);
    if (parent.bytes_per_partition <= Bytes{0}) continue;
    if (ref.kind == DepKind::Narrow) {
      out.push_back({BlockId{ref.rdd, task}, parent.bytes_per_partition,
                     DepKind::Narrow});
      continue;
    }
    const Bytes slice = std::max(
        Bytes{1}, parent.bytes_per_partition / std::max(1, s.num_tasks));
    for (std::int32_t p = 0; p < parent.num_partitions; ++p) {
      out.push_back({BlockId{ref.rdd, p}, slice, DepKind::Shuffle});
    }
  }
  return out;
}

bool same_inputs(const std::vector<TaskInput>& a,
                 const std::vector<TaskInput>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TaskInput& x, const TaskInput& y) {
                      return x.block == y.block && x.bytes == y.bytes &&
                             x.kind == y.kind;
                    });
}

enum class Mode { Clean, CrashAndBlockLoss, Gray, CacheOff };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::Clean: return "clean";
    case Mode::CrashAndBlockLoss: return "crash+block-loss";
    case Mode::Gray: return "gray";
    case Mode::CacheOff: return "cache-off";
  }
  return "?";
}

SimConfig mode_config(std::uint64_t seed, CachePolicyKind cache, Mode mode) {
  SimConfig config;
  config.topology.racks = 3;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{4};
  config.topology.cache_bytes_per_executor = 96 * kMiB;
  config.hdfs.replication = 2;
  config.cache = cache;
  config.seed = seed;
  switch (mode) {
    case Mode::Clean:
      break;
    case Mode::CrashAndBlockLoss:
      config.faults.enabled = true;
      config.faults.crashes.push_back({3 * kSec, -1});
      config.faults.crashes.push_back({9 * kSec, -1});
      config.faults.block_loss_per_gb_hour = 2000.0;
      break;
    case Mode::Gray:
      config.faults.enabled = true;
      config.faults.heartbeats = true;
      // Long enough for suspicion (and its proactive re-replication) and
      // for a declared death of the partitioned executors.
      config.faults.partitions.push_back({2 * kSec, 40 * kSec, -1});
      config.faults.degrades.push_back({kSec, 10 * kSec, -1, 2.0});
      break;
    case Mode::CacheOff:
      config.cache_enabled = false;
      break;
  }
  return config;
}

/// Brute-force oracle reference: which tasks' references are consumed.
class RefRecount {
 public:
  explicit RefRecount(const JobDag& dag) : dag_(&dag) {
    consumed_.resize(dag.num_stages());
    for (const Stage& s : dag.stages()) {
      consumed_[static_cast<std::size_t>(s.id.value())].assign(
          static_cast<std::size_t>(s.num_tasks), 0);
    }
  }

  void update(StageId s, std::int32_t task, bool restored) {
    auto& slot = consumed_[static_cast<std::size_t>(s.value())]
                          [static_cast<std::size_t>(task)];
    EXPECT_EQ(slot, restored ? 1 : 0)
        << "stage " << s << " task " << task
        << (restored ? " restored while live" : " consumed twice");
    slot = restored ? 0 : 1;
    if (!restored) current_ = s;
  }

  /// Live reader stages of `block`, ascending, recounted from the edges.
  [[nodiscard]] std::vector<StageId> live_readers(
      const ReferenceOracle& oracle, const BlockId& block) const {
    std::vector<StageId> out;
    for (const Stage& s : dag_->stages()) {
      const auto edge =
          std::find_if(s.inputs.begin(), s.inputs.end(),
                       [&](const RddRef& r) { return r.rdd == block.rdd; });
      if (edge == s.inputs.end() || oracle.stage_finished(s.id)) continue;
      const auto& done = consumed_[static_cast<std::size_t>(s.id.value())];
      // A zero-byte parent is never read, so its references are never
      // consumed: they last until the stage finishes.
      const bool reads = dag_->rdd(block.rdd).bytes_per_partition > Bytes{0};
      std::int32_t remaining = 0;
      if (edge->kind == DepKind::Narrow) {
        remaining =
            reads && done[static_cast<std::size_t>(block.partition)] != 0 ? 0
                                                                          : 1;
      } else {
        remaining = s.num_tasks;
        if (reads) {
          remaining -= static_cast<std::int32_t>(
              std::count(done.begin(), done.end(), 1));
        }
      }
      if (remaining > 0) out.push_back(s.id);
    }
    return out;
  }

  /// LERC's count, recounted: live narrow readers whose consuming task
  /// would see its whole peer group (partition p of every cacheable
  /// narrow parent) in memory if `block` were cached.
  [[nodiscard]] int effective_ref_count(const BlockManagerMaster& master,
                                        const BlockId& block) const {
    if (!dag_->rdd(block.rdd).cacheable) return 0;
    int count = 0;
    for (const StageId sid : live_readers(master.oracle(), block)) {
      const Stage& s = dag_->stage(sid);
      bool narrow_reader = false;
      bool complete = true;
      for (const RddRef& r : s.inputs) {
        if (r.kind != DepKind::Narrow || !dag_->rdd(r.rdd).cacheable) {
          continue;
        }
        if (r.rdd == block.rdd) {
          narrow_reader = true;
          continue;
        }
        complete = complete &&
                   !master.memory_holders(BlockId{r.rdd, block.partition})
                        .empty();
      }
      if (narrow_reader && complete) ++count;
    }
    return count;
  }

  [[nodiscard]] StageId current() const { return current_; }

 private:
  const JobDag* dag_;
  std::vector<std::vector<char>> consumed_;
  StageId current_{0};
};

class ShuffleReadDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShuffleReadDifferential, MatchesBlockByBlockReference) {
  const std::uint64_t seed = GetParam();
  const JobDag dag = varied_random_dag(seed);
  const JobProfile profile = exact_profile(dag);
  std::int64_t tallied = 0;
  std::int64_t per_block = 0;
  const CachePolicyKind policies[] = {
      CachePolicyKind::Lru, CachePolicyKind::Lrc, CachePolicyKind::Mrd,
      CachePolicyKind::Lrp, CachePolicyKind::Lerc};
  const Mode modes[] = {Mode::Clean, Mode::CrashAndBlockLoss, Mode::Gray,
                        Mode::CacheOff};
  for (const CachePolicyKind cache : policies) {
    for (const Mode mode : modes) {
      SCOPED_TRACE(std::string(cache_policy_name(cache)) + " " +
                   mode_name(mode));
      const SimConfig config = mode_config(seed, cache, mode);
      SimDriver driver(dag, profile, config);
      const BlockManagerMaster& master = driver.master();
      RefRecount recount(dag);
      std::int64_t ref_updates = 0;

      SimDriver::Probe probe;
      probe.shuffle_read =
          [&](StageId s, std::int32_t task, ExecutorId exec,
              const InputRead& read,
              const std::optional<BlockManagerMaster::DiskReadCounts>&
                  counts) {
            const Rdd& rdd = dag.rdd(read.rdd);
            bool any_memory = false;
            for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
              any_memory = any_memory ||
                           !master.memory_holders(BlockId{read.rdd, p})
                                .empty();
            }
            const bool expect_tallied =
                mode != Mode::Gray && !any_memory &&
                !(config.cache_enabled && rdd.cacheable);
            ASSERT_EQ(counts.has_value(), expect_tallied)
                << "stage " << s << " task " << task << " rdd " << read.rdd;
            if (!counts) {
              ++per_block;
              return;
            }
            ++tallied;
            // The descriptor's blocks, folded one lookup at a time.
            Counts fold{};
            std::int32_t blocks = 0;
            for (const TaskInput& in : reference_inputs(dag, s, task)) {
              if (in.block.rdd != read.rdd) continue;
              EXPECT_EQ(in.bytes, read.bytes);
              EXPECT_EQ(in.kind, DepKind::Shuffle);
              ++fold[static_cast<std::size_t>(
                  master.lookup(in.block, exec).source)];
              ++blocks;
            }
            EXPECT_EQ(blocks, read.count);
            Counts from_tally{};
            from_tally[static_cast<std::size_t>(BlockSource::LocalDisk)] =
                counts->local;
            from_tally[static_cast<std::size_t>(BlockSource::RackDisk)] =
                counts->rack;
            from_tally[static_cast<std::size_t>(BlockSource::RemoteDisk)] =
                counts->remote;
            EXPECT_EQ(from_tally, fold)
                << "stage " << s << " task " << task << " rdd " << read.rdd;
          };
      probe.refs_changed = [&](StageId s, std::int32_t task, bool restored) {
        recount.update(s, task, restored);
        ++ref_updates;
        EXPECT_TRUE(same_inputs(dag.task_inputs(s, task),
                                reference_inputs(dag, s, task)));
        const ReferenceOracle& oracle = master.oracle();
        for (std::int64_t o = 0; o < dag.num_blocks(); ++o) {
          const BlockId block = dag.block_at(o);
          const std::vector<StageId> live =
              recount.live_readers(oracle, block);
          ASSERT_EQ(oracle.live_readers(block), live) << "block " << block;
          ASSERT_EQ(oracle.remaining_ref_count(block),
                    static_cast<int>(live.size()));
          int distance = ReferenceOracle::kNeverUsed;
          CpuWork priority{};
          for (const StageId r : live) {
            distance = std::min(
                distance, std::max(0, r.value() - recount.current().value()));
            priority = std::max(priority, oracle.priority_value(r));
          }
          ASSERT_EQ(oracle.stage_distance(block), distance);
          ASSERT_EQ(oracle.reference_priority(block), priority);
          if (oracle.peer_tracking_enabled()) {
            ASSERT_EQ(oracle.effective_ref_count(block),
                      recount.effective_ref_count(master, block))
                << "block " << block;
          }
        }
      };
      driver.set_probe(std::move(probe));
      const RunMetrics m = driver.run();
      EXPECT_GE(ref_updates, dag.total_tasks());
      EXPECT_GT(m.jct, SimTime{0});
    }
  }
  // Both paths ran for this DAG.
  EXPECT_GT(tallied, 0);
  EXPECT_GT(per_block, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffleReadDifferential,
                         ::testing::Range<std::uint64_t>(400, 412),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dagon
