// dagonlint fixture: allow() without a justification (line 10) is
// itself a finding — every suppression in the tree must stay audited.
#include <unordered_map>

struct FixtureBare {
  int size() const {
    return static_cast<int>(table_.size());
  }

  // dagonlint: allow(unordered-iter)
  std::unordered_map<int, int> table_;
};
