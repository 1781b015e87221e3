#include "heuristics/bin_packing.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace dts {

std::vector<std::vector<TaskId>> first_fit_bins(const Instance& inst,
                                                Mem capacity) {
  // First-Fit in O(n log n): a max tree over the bins' residual
  // capacities (unopened bins hold -inf). `approx_leq(mem, r)` is monotone
  // in r, so the first bin that holds a task is the leftmost leaf whose
  // subtree maximum holds it — the bin the linear First-Fit scan picks.
  std::vector<std::vector<TaskId>> bins;
  std::size_t width = 1;
  while (width < inst.size()) width *= 2;
  std::vector<Mem> best(2 * width, -std::numeric_limits<Mem>::infinity());
  for (const Task& t : inst) {
    if (definitely_less(capacity, t.mem)) {
      throw std::invalid_argument("first_fit_bins: task " +
                                  std::to_string(t.id) +
                                  " exceeds the bin capacity");
    }
    std::size_t node = 1;
    if (approx_leq(t.mem, best[1])) {
      while (node < width) {
        node = approx_leq(t.mem, best[2 * node]) ? 2 * node : 2 * node + 1;
      }
      bins[node - width].push_back(t.id);
      best[node] -= t.mem;
    } else {
      node = width + bins.size();
      bins.push_back({t.id});
      best[node] = capacity - t.mem;
    }
    for (node /= 2; node >= 1; node /= 2) {
      best[node] = std::max(best[2 * node], best[2 * node + 1]);
    }
  }
  return bins;
}

std::vector<TaskId> bin_packing_order(const Instance& inst, Mem capacity) {
  std::vector<TaskId> order;
  order.reserve(inst.size());
  for (const auto& bin : first_fit_bins(inst, capacity)) {
    order.insert(order.end(), bin.begin(), bin.end());
  }
  return order;
}

}  // namespace dts
