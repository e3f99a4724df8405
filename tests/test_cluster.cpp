// Unit tests for the cluster substrate: topology construction, locality
// classification, HDFS placement, and the data-plane cost model.
#include <gtest/gtest.h>

#include "cluster/cost_model.hpp"
#include "cluster/hdfs.hpp"
#include "cluster/topology.hpp"
#include "workloads/example_dag.hpp"

namespace dagon {
namespace {

TopologySpec small_spec() {
  TopologySpec spec;
  spec.racks = 2;
  spec.nodes_per_rack = 3;
  spec.executors_per_node = 2;
  spec.cores_per_executor = Cpus{4};
  spec.cache_bytes_per_executor = 256 * kMiB;
  return spec;
}

TEST(Topology, BuildsExpectedShape) {
  const Topology topo(small_spec());
  EXPECT_EQ(topo.num_nodes(), 6u);
  EXPECT_EQ(topo.num_executors(), 12u);
  EXPECT_EQ(topo.total_cores(), Cpus{48});
}

TEST(Topology, NodeAndRackWiring) {
  const Topology topo(small_spec());
  for (const Executor& e : topo.executors()) {
    const Node& n = topo.node(e.node);
    EXPECT_NE(std::find(n.executors.begin(), n.executors.end(), e.id),
              n.executors.end());
  }
  EXPECT_EQ(topo.rack_of(NodeId(0)), RackId(0));
  EXPECT_EQ(topo.rack_of(NodeId(3)), RackId(1));
}

TEST(Topology, NodeLocalityClassification) {
  const Topology topo(small_spec());
  const ExecutorId e0 = topo.node(NodeId(0)).executors[0];
  EXPECT_EQ(topo.node_locality(e0, NodeId(0)), Locality::Node);
  EXPECT_EQ(topo.node_locality(e0, NodeId(1)), Locality::Rack);
  EXPECT_EQ(topo.node_locality(e0, NodeId(3)), Locality::Any);
}

TEST(Topology, RejectsInvalidSpec) {
  TopologySpec spec = small_spec();
  spec.cores_per_executor = Cpus{0};
  EXPECT_THROW(Topology{spec}, ConfigError);
}

TEST(Locality, OrderingAndNames) {
  EXPECT_TRUE(at_least(Locality::Process, Locality::Node));
  EXPECT_TRUE(at_least(Locality::Node, Locality::Node));
  EXPECT_FALSE(at_least(Locality::Rack, Locality::Node));
  EXPECT_STREQ(locality_name(Locality::NoPref), "NO_PREF");
  EXPECT_STREQ(locality_name(Locality::Any), "ANY");
}

TEST(Hdfs, PlacesAllInputBlocksWithReplication) {
  const Workload w = make_example_dag();
  const Topology topo(small_spec());
  Rng rng(1);
  HdfsSpec spec;
  spec.replication = 2;
  const HdfsPlacement hdfs(w.dag, topo, spec, rng);
  for (const Rdd& r : w.dag.rdds()) {
    if (!r.is_input) continue;
    for (std::int32_t p = 0; p < r.num_partitions; ++p) {
      const auto& nodes = hdfs.replicas(BlockId{r.id, p});
      ASSERT_EQ(nodes.size(), 2u);
      EXPECT_NE(nodes[0], nodes[1]);
    }
  }
}

TEST(Hdfs, NonInputBlocksHaveNoReplicas) {
  const Workload w = make_example_dag();
  const Topology topo(small_spec());
  Rng rng(1);
  const HdfsPlacement hdfs(w.dag, topo, HdfsSpec{}, rng);
  // RDD B (a stage output) is not HDFS-resident.
  const RddId b_rdd = w.dag.stage(StageId(0)).output;
  EXPECT_TRUE(hdfs.replicas(BlockId{b_rdd, 0}).empty());
}

TEST(Hdfs, ReplicationClampedToClusterSize) {
  const Workload w = make_example_dag();
  TopologySpec tiny;
  tiny.racks = 1;
  tiny.nodes_per_rack = 2;
  const Topology topo(tiny);
  Rng rng(1);
  HdfsSpec spec;
  spec.replication = 5;
  const HdfsPlacement hdfs(w.dag, topo, spec, rng);
  EXPECT_EQ(hdfs.replicas(BlockId{RddId(0), 0}).size(), 2u);
}

TEST(Hdfs, SkewConcentratesBlocks) {
  JobDagBuilder b("big-input");
  b.input_rdd("in", 400, kMiB);
  b.add_stage({.name = "s",
               .inputs = {{RddId(0), DepKind::Narrow}},
               .num_tasks = 400,
               .task_cpus = Cpus{1},
               .task_duration = kSec});
  const JobDag dag = b.build();
  const Topology topo(small_spec());

  HdfsSpec skewed;
  skewed.replication = 1;
  skewed.skew = 0.8;
  skewed.hot_nodes = 1;
  Rng rng(2);
  const HdfsPlacement hdfs(dag, topo, skewed, rng);
  int on_hot = 0;
  for (std::int64_t ord = 0; ord < hdfs.num_blocks(); ++ord) {
    const auto& nodes = hdfs.replicas_by_ord(ord);
    if (!nodes.empty() && nodes.front() == NodeId(0)) ++on_hot;
  }
  // ~80% should land on the single hot node vs ~17% under even spread.
  EXPECT_GT(on_hot, 250);
}

TEST(Hdfs, DeterministicForSeed) {
  const Workload w = make_example_dag();
  const Topology topo(small_spec());
  Rng rng1(99);
  Rng rng2(99);
  const HdfsPlacement a(w.dag, topo, HdfsSpec{}, rng1);
  const HdfsPlacement b(w.dag, topo, HdfsSpec{}, rng2);
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (std::int64_t ord = 0; ord < a.num_blocks(); ++ord) {
    EXPECT_EQ(a.replicas_by_ord(ord), b.replicas_by_ord(ord));
  }
}

TEST(Hdfs, RejectsNonPositiveReplication) {
  const Workload w = make_example_dag();
  const Topology topo(small_spec());
  Rng rng(1);
  HdfsSpec spec;
  spec.replication = 0;
  EXPECT_THROW(HdfsPlacement(w.dag, topo, spec, rng), ConfigError);
}

TEST(CostModel, MemoryFastestDiskSlower) {
  const CostModel cost{CostModelSpec{}};
  const Bytes b = 64 * kMiB;
  const SimTime mem = cost.fetch_time(b, BlockSource::LocalMemory);
  const SimTime disk = cost.fetch_time(b, BlockSource::LocalDisk);
  const SimTime cross = cost.fetch_time(b, BlockSource::RemoteDisk);
  EXPECT_LT(mem, disk);
  EXPECT_LE(disk, cross);
}

TEST(CostModel, ZeroBytesIsFree) {
  const CostModel cost{CostModelSpec{}};
  for (const auto src :
       {BlockSource::LocalMemory, BlockSource::LocalDisk,
        BlockSource::RemoteDisk}) {
    EXPECT_EQ(cost.fetch_time(Bytes{0}, src), SimTime{0});
  }
}

TEST(CostModel, SerdeAppliesToAllButLocalMemory) {
  CostModelSpec spec;
  spec.serde_sec_per_byte = 0.0;
  const CostModel cost(spec);
  const Bytes b = 64 * kMiB;
  const double serde = 40e-9;  // 40 ns/B
  EXPECT_EQ(cost.fetch_time(b, BlockSource::LocalMemory, serde),
            cost.fetch_time(b, BlockSource::LocalMemory, 0.0));
  const SimTime extra = time_from_usec(
      serde * static_cast<double>(b.count()) *
      static_cast<double>(kSec.count()));
  EXPECT_EQ(cost.fetch_time(b, BlockSource::RackMemory, serde),
            cost.fetch_time(b, BlockSource::RackMemory, 0.0) + extra);
  EXPECT_EQ(cost.fetch_time(b, BlockSource::LocalDisk, serde),
            cost.fetch_time(b, BlockSource::LocalDisk, 0.0) + extra);
}

TEST(CostModel, Fig3Calibration) {
  // The paper's Fig. 3 analysis: reading a remote 64 MiB cached
  // partition costs >= 10x an in-process read.
  CostModelSpec spec;
  spec.serde_sec_per_byte = 40e-9;
  const CostModel cost(spec);
  const Bytes b = 64 * kMiB;
  const SimTime process = cost.fetch_time(b, BlockSource::LocalMemory);
  const SimTime rack = cost.fetch_time(b, BlockSource::RackMemory);
  EXPECT_GT(rack, 10 * process);
}

TEST(CostModel, ScanStagesAreLocalityInsensitive) {
  // Raw HDFS reads (no serde): local-disk vs rack-disk within ~30%,
  // because the remote read pipelines over a 10 Gbps link.
  const CostModel cost{CostModelSpec{}};
  const Bytes b = 256 * kMiB;
  const double local =
      static_cast<double>(cost.fetch_time(b, BlockSource::LocalDisk, 0.0).count());
  const double rack =
      static_cast<double>(cost.fetch_time(b, BlockSource::RackDisk, 0.0).count());
  EXPECT_LT(rack / local, 1.3);
}

TEST(CostModel, RejectsBadSpec) {
  CostModelSpec spec;
  spec.disk_bw = 0;
  EXPECT_THROW(CostModel{spec}, ConfigError);
}

TEST(CostModel, RejectsNonPositiveLatencies) {
  CostModelSpec spec;
  spec.disk_latency = SimTime{0};
  EXPECT_THROW(CostModel{spec}, ConfigError);
  spec = CostModelSpec{};
  spec.net_latency = SimTime{-1};
  EXPECT_THROW(CostModel{spec}, ConfigError);
}

TEST(CostModel, RejectsNegativeSerdeRate) {
  CostModelSpec spec;
  spec.serde_sec_per_byte = -1e-9;
  EXPECT_THROW(CostModel{spec}, ConfigError);
  // Zero is the raw-HDFS-input case and must stay legal.
  spec.serde_sec_per_byte = 0.0;
  EXPECT_NO_THROW(CostModel{spec});
}

TEST(CostModel, DefaultedSerdeArgumentUsesTheSpecRate) {
  CostModelSpec spec;
  spec.serde_sec_per_byte = 1e-8;
  const CostModel cost(spec);
  const Bytes b = 64 * kMiB;
  // Omitting the override reads the spec; passing it explicitly and
  // passing 0.0 bracket the defaulted value.
  EXPECT_EQ(cost.fetch_time(b, BlockSource::RackMemory),
            cost.fetch_time(b, BlockSource::RackMemory, 1e-8));
  EXPECT_GT(cost.fetch_time(b, BlockSource::RackMemory),
            cost.fetch_time(b, BlockSource::RackMemory, 0.0));
}

TEST(CostModel, SlowdownScalesTheWholeFetch) {
  const CostModel cost{CostModelSpec{}};
  const Bytes b = 64 * kMiB;
  const SimTime base = cost.fetch_time(b, BlockSource::LocalDisk);
  EXPECT_EQ(cost.fetch_time(b, BlockSource::LocalDisk, std::nullopt, 2.0),
            scale_time(base, 2.0));
}

TEST(BlockSource, Names) {
  EXPECT_STREQ(block_source_name(BlockSource::LocalMemory), "local-mem");
  EXPECT_STREQ(block_source_name(BlockSource::RemoteDisk), "remote-disk");
  EXPECT_TRUE(is_memory_source(BlockSource::RackMemory));
  EXPECT_FALSE(is_memory_source(BlockSource::LocalDisk));
}

}  // namespace
}  // namespace dagon
