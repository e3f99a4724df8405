// Coverage for the dagonflow lifecycle state machines (common/fsm.hpp):
// every legal path in the three transition tables, illegal edges
// throwing under Mode::Strict with the machine/edge/entity named,
// Mode::Count applying the write while charging the Violations sink,
// the retry-reopen and suspect-re-admission round trips the engine
// relies on, the fsm::State<E> write surface, and the DOT rendering
// --dump-fsm prints.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/fsm.hpp"

namespace dagon {
namespace {

using fsm::Mode;
using fsm::Violations;

// ---------------------------------------------------------------------------
// Legal paths.

TEST(FsmTask, FullRetryAndReopenRoundTrip) {
  fsm::State s{TaskStatus::Pending};
  // Launch, fail, requeue, relaunch, finish: the retry loop.
  EXPECT_TRUE(fsm::transition(s, TaskStatus::Running));
  EXPECT_TRUE(fsm::transition(s, TaskStatus::Failed));
  EXPECT_TRUE(fsm::transition(s, TaskStatus::Pending));
  EXPECT_TRUE(fsm::transition(s, TaskStatus::Running));
  EXPECT_TRUE(fsm::transition(s, TaskStatus::Finished));
  // Lineage recovery re-opens a finished task whose output was lost.
  EXPECT_TRUE(fsm::transition(s, TaskStatus::Pending));
  EXPECT_EQ(s, TaskStatus::Pending);
}

TEST(FsmBlock, MaterializeEvictReadmitAndLoseRecompute) {
  fsm::State r{BlockResidency::Absent};
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Materializing));
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Memory));  // admitted
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Evicted));
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Memory));  // re-admit
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Lost));
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Materializing));
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Disk));  // admission refused
  EXPECT_TRUE(fsm::transition(r, BlockResidency::Memory));  // read-admit
  EXPECT_EQ(r, BlockResidency::Memory);
}

TEST(FsmBlock, DiskAndEvictedCopiesCanDie) {
  fsm::State disk{BlockResidency::Disk};
  EXPECT_TRUE(fsm::transition(disk, BlockResidency::Lost));
  fsm::State evicted{BlockResidency::Evicted};
  EXPECT_TRUE(fsm::transition(evicted, BlockResidency::Lost));
}

TEST(FsmExecutor, SuspectReadmissionThenDeath) {
  fsm::State h{ExecutorHealth::Healthy};
  // Gray band round trip: suspected, heartbeats back, suspected again,
  // finally declared dead.
  EXPECT_TRUE(fsm::transition(h, ExecutorHealth::Suspect));
  EXPECT_TRUE(fsm::transition(h, ExecutorHealth::Healthy));
  EXPECT_TRUE(fsm::transition(h, ExecutorHealth::Suspect));
  EXPECT_TRUE(fsm::transition(h, ExecutorHealth::Dead));
  EXPECT_EQ(h, ExecutorHealth::Dead);
}

TEST(FsmExecutor, HardCrashSkipsTheGrayBand) {
  fsm::State h{ExecutorHealth::Healthy};
  EXPECT_TRUE(fsm::transition(h, ExecutorHealth::Dead));
}

// ---------------------------------------------------------------------------
// Illegal edges: Strict throws with a message naming the edge.

TEST(FsmStrict, IllegalTaskEdgeThrowsNamingMachineEdgeAndEntity) {
  fsm::State s{TaskStatus::Pending};
  try {
    fsm::transition(s, TaskStatus::Finished, 42, nullptr, Mode::Strict);
    FAIL() << "Pending -> Finished must not be accepted";
  } catch (const InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("task-status"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Pending -> Finished"), std::string::npos) << msg;
    EXPECT_NE(msg.find("entity 42"), std::string::npos) << msg;
  }
  // The write must not have been applied.
  EXPECT_EQ(s, TaskStatus::Pending);
}

TEST(FsmStrict, DeadExecutorIsTerminal) {
  fsm::State h{ExecutorHealth::Dead};
  EXPECT_THROW(
      fsm::transition(h, ExecutorHealth::Healthy, 3, nullptr, Mode::Strict),
      InvariantError);
  EXPECT_THROW(
      fsm::transition(h, ExecutorHealth::Suspect, 3, nullptr, Mode::Strict),
      InvariantError);
  EXPECT_EQ(h, ExecutorHealth::Dead);
}

TEST(FsmStrict, EvictionRequiresAMemoryCopy) {
  fsm::State r{BlockResidency::Disk};
  EXPECT_THROW(
      fsm::transition(r, BlockResidency::Evicted, -1, nullptr, Mode::Strict),
      InvariantError);
}

TEST(FsmStrict, NegativeEntityIsOmittedFromTheMessage) {
  fsm::State s{TaskStatus::Running};
  try {
    fsm::transition(s, TaskStatus::Running, -1, nullptr, Mode::Strict);
    FAIL() << "self-loop Running -> Running is not in the table";
  } catch (const InvariantError& e) {
    EXPECT_EQ(std::string(e.what()).find("entity"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Count mode: the release-build posture. The breach is charged to the
// sink, the write still lands, and the run keeps going — the
// fingerprint gate (RunMetrics::FsmStats) flags it instead.

TEST(FsmCount, BreachIsCountedAndWriteApplied) {
  Violations sink;
  fsm::State s{TaskStatus::Pending};
  EXPECT_FALSE(fsm::transition(s, TaskStatus::Finished, 7, &sink,
                               Mode::Count));
  EXPECT_EQ(s, TaskStatus::Finished);
  EXPECT_EQ(sink.illegal, 1);
  EXPECT_TRUE(sink.any());
  // Legal transitions do not touch the sink.
  EXPECT_TRUE(fsm::transition(s, TaskStatus::Pending, 7, &sink,
                              Mode::Count));
  EXPECT_EQ(sink.illegal, 1);
}

TEST(FsmCount, NullSinkIsTolerated) {
  fsm::State h{ExecutorHealth::Dead};
  EXPECT_FALSE(
      fsm::transition(h, ExecutorHealth::Healthy, -1, nullptr, Mode::Count));
  EXPECT_EQ(h, ExecutorHealth::Healthy);
}

// ---------------------------------------------------------------------------
// fsm::State<E>: reads as E, constructed in its initial state, written
// only by transition(). The Build.LifecycleField* ctests check the same
// thing on a real field by compiling a direct assignment.

TEST(FsmState, ReadsAsEnumAndOnlyTransitionWrites) {
  using TaskState = fsm::State<TaskStatus>;
  static_assert(std::is_convertible_v<TaskState, TaskStatus>);
  static_assert(std::is_copy_constructible_v<TaskState>);
  static_assert(!std::is_convertible_v<TaskStatus, TaskState>);
  static_assert(!std::is_default_constructible_v<TaskState>);
  static_assert(!std::is_assignable_v<TaskState&, TaskStatus>);
  static_assert(!std::is_copy_assignable_v<TaskState>);
  static_assert(!std::is_move_assignable_v<TaskState>);
  static_assert(sizeof(TaskState) == sizeof(TaskStatus));

  const TaskState initial{TaskStatus::Running};
  TaskState copy = initial;
  EXPECT_TRUE(fsm::transition(copy, TaskStatus::Finished));
  EXPECT_EQ(copy, TaskStatus::Finished);
  EXPECT_EQ(initial, TaskStatus::Running);
}

// ---------------------------------------------------------------------------
// Table/introspection surface.

TEST(FsmTables, AllowedMatchesTheDocumentedEdgeCounts) {
  // allowed() is constexpr: table membership folds at compile time.
  static_assert(fsm::allowed(TaskStatus::Pending, TaskStatus::Running));
  static_assert(!fsm::allowed(TaskStatus::Pending, TaskStatus::Finished));
  static_assert(fsm::allowed(BlockResidency::Lost,
                             BlockResidency::Materializing));
  static_assert(!fsm::allowed(BlockResidency::Lost, BlockResidency::Memory));
  static_assert(fsm::allowed(ExecutorHealth::Suspect, ExecutorHealth::Dead));
  static_assert(!fsm::allowed(ExecutorHealth::Dead, ExecutorHealth::Suspect));
  static_assert(fsm::allowed(TaskStatus::Running, TaskStatus::Cancelled));
  static_assert(!fsm::allowed(TaskStatus::Cancelled, TaskStatus::Running));
  EXPECT_EQ(fsm::StateMachine<TaskStatus>::kEdges.size(), 6u);
  EXPECT_EQ(fsm::StateMachine<BlockResidency>::kEdges.size(), 10u);
  EXPECT_EQ(fsm::StateMachine<ExecutorHealth>::kEdges.size(), 4u);
}

TEST(FsmTables, StateNamesRoundTrip) {
  EXPECT_STREQ(to_string(TaskStatus::Pending), "Pending");
  EXPECT_STREQ(to_string(BlockResidency::Materializing), "Materializing");
  EXPECT_STREQ(to_string(ExecutorHealth::Suspect), "Suspect");
}

TEST(FsmDot, RendersEveryEdgeInTableOrder) {
  const std::string dot = fsm::to_dot<TaskStatus>();
  EXPECT_NE(dot.find("digraph task_status {"), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"Pending\" -> \"Running\";"), std::string::npos)
      << dot;
  EXPECT_NE(dot.find("\"Finished\" -> \"Pending\";"), std::string::npos)
      << dot;
  // Table order is deterministic: launch edge precedes the reopen edge.
  EXPECT_LT(dot.find("\"Pending\" -> \"Running\";"),
            dot.find("\"Finished\" -> \"Pending\";"));
  const std::string block = fsm::to_dot<BlockResidency>();
  EXPECT_NE(block.find("digraph block_residency {"), std::string::npos);
  EXPECT_NE(block.find("\"Lost\" -> \"Materializing\";"), std::string::npos);
  const std::string exec = fsm::to_dot<ExecutorHealth>();
  EXPECT_NE(exec.find("digraph executor_health {"), std::string::npos);
  EXPECT_NE(exec.find("\"Suspect\" -> \"Dead\";"), std::string::npos);
}

}  // namespace
}  // namespace dagon
