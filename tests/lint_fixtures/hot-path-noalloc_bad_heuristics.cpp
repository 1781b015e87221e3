// lint-as: src/heuristics/hot_fixture.cpp
// Violation: the rule covers the candidate index in src/heuristics/ too —
// a marked query that builds a temporary container per decision.

#include <vector>

namespace dts {

struct BadIndex {
  // dts-lint: hot-path
  int select(const int* rank, int n) const {
    std::vector<int> fitting;
    int best = -1;
    for (int k = 0; k < n; ++k) {
      if (best < 0 || rank[k] < rank[best]) best = k;
    }
    return best;
  }
};

}  // namespace dts
