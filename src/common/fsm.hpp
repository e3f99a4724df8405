// Declarative lifecycle state machines (dagonflow).
//
// The simulator is, at its core, three interacting state machines: task
// attempts under retry, cached-block residency under eviction and
// lineage recompute, and executor health under gray failures. Every
// lifecycle bug shipped so far was an illegal transition that nothing
// checked. This header makes the legal edges single-source-of-truth:
// each lifecycle enum gets a constexpr transition table in its
// `StateMachine<E>` specialization, and every lifecycle field is an
// `fsm::State<E>`, which only `fsm::transition()` can write.
//
// Enforcement is two-tier:
//   - debug builds (NDEBUG undefined) throw InvariantError naming the
//     machine, the from→to edge and the entity id — consistent with the
//     repo-wide throw-never-abort convention in common/error.hpp;
//   - release builds apply the write anyway but count the breach in a
//     `fsm::Violations` sink, which RunMetrics folds into
//     metrics_fingerprint so a violating run can never silently produce
//     the same digest as a clean one.
//
// The compiler closes the bypass hole: `State<E>` reads as an `E` but
// has no assignment operator (pinned by the Build.LifecycleField*
// ctests). `dagonsim --dump-fsm <machine>` renders each table as
// Graphviz DOT (checked into docs/fsm/, kept in sync by CI).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace dagon {

/// Lifecycle of one task index within a stage. `Failed → Pending` is the
/// retry requeue; `Finished → Pending` is lineage recovery re-opening a
/// completed task whose output block was lost. `Running → Cancelled` is
/// a hedged/speculative attempt losing the race: a sibling attempt of
/// the same task finished first, so this one is torn down and its cores
/// returned. `Cancelled` is terminal for the attempt (the *task* lives
/// on through the winning sibling).
enum class TaskStatus : std::uint8_t {
  Pending,
  Running,
  Finished,
  Failed,
  Cancelled,
};

/// Residency of one block (rdd, partition) as tracked by the cache
/// master. `Absent` is the implicit initial state of a not-yet-produced
/// block; input blocks start at `Disk` (HDFS replicas). `Lost` means no
/// copy survives anywhere and only lineage recompute
/// (`Lost → Materializing`) can bring the block back.
enum class BlockResidency : std::uint8_t {
  Absent,
  Materializing,
  Memory,
  Disk,
  Evicted,
  Lost,
};

/// Health of one executor as seen by the driver. `Suspect` is the
/// phi-accrual gray band: the executor keeps its cores and running
/// attempts but receives no new launches until it heartbeats back
/// (`Suspect → Healthy`) or is declared dead (`Suspect → Dead`).
enum class ExecutorHealth : std::uint8_t { Healthy, Suspect, Dead };

namespace fsm {

/// One legal edge of a machine's transition table.
template <typename E>
struct Edge {
  E from;
  E to;
};

/// Per-lifecycle-enum trait: the machine's name, per-state names and the
/// constexpr table of legal edges. Specialized below for each lifecycle
/// enum; using fsm::transition() with an unspecialized enum is a compile
/// error, which is the point — ad-hoc state fields don't get tables.
template <typename E>
struct StateMachine;

template <>
struct StateMachine<TaskStatus> {
  static constexpr std::string_view kName = "task-status";

  static constexpr const char* name(TaskStatus s) {
    switch (s) {
      case TaskStatus::Pending: return "Pending";
      case TaskStatus::Running: return "Running";
      case TaskStatus::Finished: return "Finished";
      case TaskStatus::Failed: return "Failed";
      case TaskStatus::Cancelled: return "Cancelled";
    }
    return "?";
  }

  static constexpr std::array<Edge<TaskStatus>, 6> kEdges{{
      {TaskStatus::Pending, TaskStatus::Running},    // scheduler launch
      {TaskStatus::Running, TaskStatus::Finished},   // attempt completed
      {TaskStatus::Running, TaskStatus::Failed},     // fault / crash
      {TaskStatus::Running, TaskStatus::Cancelled},  // hedge lost the race
      {TaskStatus::Failed, TaskStatus::Pending},     // retry requeue
      {TaskStatus::Finished, TaskStatus::Pending},   // lineage reopen
  }};
};

template <>
struct StateMachine<BlockResidency> {
  static constexpr std::string_view kName = "block-residency";

  static constexpr const char* name(BlockResidency s) {
    switch (s) {
      case BlockResidency::Absent: return "Absent";
      case BlockResidency::Materializing: return "Materializing";
      case BlockResidency::Memory: return "Memory";
      case BlockResidency::Disk: return "Disk";
      case BlockResidency::Evicted: return "Evicted";
      case BlockResidency::Lost: return "Lost";
    }
    return "?";
  }

  static constexpr std::array<Edge<BlockResidency>, 10> kEdges{{
      {BlockResidency::Absent, BlockResidency::Materializing},  // produce
      {BlockResidency::Materializing, BlockResidency::Memory},  // admitted
      {BlockResidency::Materializing, BlockResidency::Disk},    // refused
      {BlockResidency::Disk, BlockResidency::Memory},       // read-admit
      {BlockResidency::Evicted, BlockResidency::Memory},    // re-admit
      {BlockResidency::Memory, BlockResidency::Evicted},    // evict (disk
                                                            // copy stays)
      {BlockResidency::Memory, BlockResidency::Lost},       // all copies die
      {BlockResidency::Disk, BlockResidency::Lost},         // disk copy dies
      {BlockResidency::Evicted, BlockResidency::Lost},      // disk copy dies
      {BlockResidency::Lost, BlockResidency::Materializing},  // recompute
  }};
};

template <>
struct StateMachine<ExecutorHealth> {
  static constexpr std::string_view kName = "executor-health";

  static constexpr const char* name(ExecutorHealth s) {
    switch (s) {
      case ExecutorHealth::Healthy: return "Healthy";
      case ExecutorHealth::Suspect: return "Suspect";
      case ExecutorHealth::Dead: return "Dead";
    }
    return "?";
  }

  static constexpr std::array<Edge<ExecutorHealth>, 4> kEdges{{
      {ExecutorHealth::Healthy, ExecutorHealth::Suspect},  // phi ≥ suspect
      {ExecutorHealth::Suspect, ExecutorHealth::Healthy},  // heartbeat back
      {ExecutorHealth::Suspect, ExecutorHealth::Dead},     // phi ≥ dead
      {ExecutorHealth::Healthy, ExecutorHealth::Dead},     // hard crash
  }};
};

/// Is `from → to` in the machine's table? Constexpr, so a transition
/// between literal states folds to a constant — the zero-overhead path.
template <typename E>
[[nodiscard]] constexpr bool allowed(E from, E to) {
  for (const Edge<E>& e : StateMachine<E>::kEdges) {
    if (e.from == from && e.to == to) return true;
  }
  return false;
}

/// Release-build breach counter. One sink per machine lives in
/// RunMetrics::FsmStats and is folded into metrics_fingerprint whenever
/// any counter is non-zero.
struct Violations {
  std::int64_t illegal = 0;

  [[nodiscard]] bool any() const { return illegal != 0; }
};

/// How transition() reacts to an edge missing from the table.
enum class Mode : std::uint8_t {
  /// Strict when NDEBUG is undefined (debug build), Count otherwise.
  Default,
  /// Throw InvariantError naming machine, from→to edge and entity id.
  Strict,
  /// Count the breach in the sink and apply the write anyway.
  Count,
};

template <typename E>
[[nodiscard]] std::string illegal_message(E from, E to, std::int64_t entity) {
  std::string msg = "illegal ";
  msg += StateMachine<E>::kName;
  msg += " transition ";
  msg += StateMachine<E>::name(from);
  msg += " -> ";
  msg += StateMachine<E>::name(to);
  if (entity >= 0) {
    msg += " (entity ";
    msg += std::to_string(entity);
    msg += ")";
  }
  return msg;
}

template <typename E>
class State;

/// The one way to write a lifecycle field. Applies `to` and returns true
/// when the edge is legal; otherwise throws (Strict) or counts the
/// breach into `violations` and still applies the write (Count) so a
/// release-build simulation keeps running — the fingerprint gate flags
/// the run instead. `entity` names the task index, block or executor in
/// diagnostics; pass -1 when there is no meaningful id.
template <typename E>
bool transition(State<E>& current, E to, std::int64_t entity = -1,
                Violations* violations = nullptr, Mode mode = Mode::Default);

/// A lifecycle field: reads as an `E`, is constructed in its initial
/// state, and is written only by transition(). Copy-construction is
/// kept (containers and snapshots copy it); copy-assignment is deleted,
/// so `field = E::X` and `field = other` do not compile.
template <typename E>
class State {
 public:
  explicit constexpr State(E initial) : value_(initial) {}
  State(const State&) = default;
  State& operator=(const State&) = delete;

  constexpr operator E() const { return value_; }

 private:
  friend bool transition<E>(State<E>&, E, std::int64_t, Violations*, Mode);

  E value_;
};

template <typename E>
bool transition(State<E>& current, E to, std::int64_t entity,
                Violations* violations, Mode mode) {
  const E from = current;
  if (allowed(from, to)) {
    current.value_ = to;
    return true;
  }
#ifdef NDEBUG
  const bool strict = mode == Mode::Strict;
#else
  const bool strict = mode != Mode::Count;
#endif
  if (strict) throw InvariantError(illegal_message(from, to, entity));
  if (violations != nullptr) ++violations->illegal;
  current.value_ = to;
  return false;
}

/// Graphviz DOT rendering of a machine's table, in table order (hence
/// deterministic). `dagonsim --dump-fsm <machine>` prints this; the
/// checked-in copies live in docs/fsm/.
template <typename E>
[[nodiscard]] std::string to_dot() {
  std::string graph_name;
  for (const char c : StateMachine<E>::kName) {
    graph_name += c == '-' ? '_' : c;
  }
  std::string out = "digraph " + graph_name + " {\n";
  out += "  rankdir=LR;\n";
  out += "  node [shape=box, fontname=\"Helvetica\"];\n";
  for (const Edge<E>& e : StateMachine<E>::kEdges) {
    out += "  \"";
    out += StateMachine<E>::name(e.from);
    out += "\" -> \"";
    out += StateMachine<E>::name(e.to);
    out += "\";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace fsm

[[nodiscard]] constexpr const char* to_string(TaskStatus s) {
  return fsm::StateMachine<TaskStatus>::name(s);
}
[[nodiscard]] constexpr const char* to_string(BlockResidency s) {
  return fsm::StateMachine<BlockResidency>::name(s);
}
[[nodiscard]] constexpr const char* to_string(ExecutorHealth s) {
  return fsm::StateMachine<ExecutorHealth>::name(s);
}

}  // namespace dagon
