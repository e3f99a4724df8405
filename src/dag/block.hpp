// Block identity: one partition of one RDD.
//
// Blocks are the unit of caching, HDFS placement, and data access —
// exactly Spark's `RDDBlockId(rddId, splitIndex)`.
#pragma once

#include <cstdint>
#include <ostream>

#include "common/strong_id.hpp"

namespace dagon {

struct BlockId {
  RddId rdd;
  std::int32_t partition = -1;

  [[nodiscard]] bool valid() const { return rdd.valid() && partition >= 0; }

  auto operator<=>(const BlockId&) const = default;

  friend std::ostream& operator<<(std::ostream& os, const BlockId& b) {
    return os << "rdd_" << b.rdd << '_' << b.partition;
  }
};

}  // namespace dagon
