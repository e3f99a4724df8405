// dagonlint fixture: a justified allow() — this file must lint clean.
#include <unordered_map>

struct FixtureClean {
  // dagonlint: allow(unordered-iter): lookups only, never iterated.
  std::unordered_map<int, int> table_;

  int lookup(int key) const {
    const auto it = table_.find(key);
    return it == table_.end() ? 0 : it->second;
  }
};
