// Must-pass fixture: justified pragmas suppress the findings they cover,
// on their own line or from a comment line binding to the next code line.
#include <random>
#include <span>
#include <vector>

namespace spr_fixture {

std::span<const int> gated() {
  std::vector<int> local{1};
  // spr-analyze: allow(view-lifetime) fixture proves justified pragmas
  return std::span<const int>(local);
}

unsigned seeded_draw(unsigned seed) {
  // spr-analyze: allow(raw-rng) fixture proves comment-line pragma binding
  std::mt19937 gen(seed);
  return static_cast<unsigned>(gen());
}

int* owned_elsewhere() {
  int* p = new int(7);  // spr-analyze: allow(raw-new) fixture same-line pragma
  return p;
}

}  // namespace spr_fixture
