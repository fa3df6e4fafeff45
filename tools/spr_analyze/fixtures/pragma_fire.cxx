// Must-fire fixture: malformed pragmas are themselves findings.
#include <random>
#include <span>
#include <vector>

namespace spr_fixture {

std::span<const int> bad() {
  std::vector<int> local{1};
  return std::span<const int>(local);  // spr-analyze: allow(view-lifetime)
}
// EXPECT-PRAGMA: the allow above has no reason text.

unsigned unjustified(unsigned seed) {
  std::mt19937 gen(seed);  // spr-analyze: allow(raw-rng)
  return static_cast<unsigned>(gen());
}
// EXPECT-PRAGMA: a line rule's allow needs a reason too.

std::span<const int> worse() {
  std::vector<int> local{2};
  // spr-analyze: allow(made-up-rule) not a rule the analyzer knows
  return std::span<const int>(local);
}
// EXPECT-PRAGMA: unknown rule name.
// EXPECT-VIEW-LIFETIME: the bogus allow suppresses nothing.

}  // namespace spr_fixture
