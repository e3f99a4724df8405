// Strongly-typed integer identifiers.
//
// The simulator juggles many id spaces (stages, tasks, RDDs, blocks,
// nodes, executors...). Mixing them up is a classic source of silent
// bugs, so each id space gets its own incompatible wrapper type.
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>

namespace dagon {

/// A strongly-typed integral identifier. `Tag` is a phantom type that
/// makes ids from different spaces mutually unassignable.
template <typename Tag, typename Rep = std::int32_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ >= 0; }

  /// Sentinel for "no id".
  [[nodiscard]] static constexpr StrongId invalid() { return StrongId(-1); }

  constexpr auto operator<=>(const StrongId&) const = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << id.value_;
  }

 private:
  Rep value_ = -1;
};

struct StageTag {};
struct TaskTag {};
struct RddTag {};
struct NodeTag {};
struct RackTag {};
struct ExecutorTag {};
struct JobTag {};

using StageId = StrongId<StageTag>;
using TaskId = StrongId<TaskTag, std::int64_t>;
using RddId = StrongId<RddTag>;
using NodeId = StrongId<NodeTag>;
using RackId = StrongId<RackTag>;
using ExecutorId = StrongId<ExecutorTag>;
using JobId = StrongId<JobTag>;

}  // namespace dagon
