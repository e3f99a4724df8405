// dagonlint fixture: one unsuppressed unordered-iter violation (line 5).
#include <unordered_map>

struct FixtureTable {
  std::unordered_map<int, int> table_;

  int sum() const {
    int total = 0;
    for (const auto& [k, v] : table_) total += v;
    return total;
  }
};
