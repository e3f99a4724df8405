// dagonlint fixture: narrowing-cast evidence is scoped to the brace body
// that declares it. Three functions name an `x`; only the cast of the
// `double x` fires (line 12), not the casts of the integer ones.
#include <cstddef>
#include <cstdint>

std::size_t fixture_index_before(std::int64_t x) {
  return static_cast<std::size_t>(x);
}

std::int64_t fixture_truncate(double x) {
  return static_cast<std::int64_t>(x);
}

std::size_t fixture_index_after(std::int64_t count) {
  const std::int64_t x = count - 1;
  return static_cast<std::size_t>(x);
}
