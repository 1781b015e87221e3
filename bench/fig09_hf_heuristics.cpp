/// Fig. 9 — HF: distribution of ratio-to-OMIM for all 14 heuristics at
/// each of the nine capacities mc..2mc, over the 150 process traces.
/// One boxplot panel is printed per capacity, exactly the figure's grid.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dts;
  const bench::Options options = bench::Options::parse(argc, argv);

  const std::vector<Instance> traces =
      bench::corpus(ChemistryKernel::kHartreeFock, options);
  const std::vector<double> factors = bench::capacity_factors();
  const std::vector<const Heuristic*> rows = bench::all_rows();

  std::printf("Fig. 9 — HF, %zu traces, mc = 176KB:\n\n", traces.size());
  const std::vector<bench::RatioCell> grid =
      bench::ratio_grid(traces, factors, rows);

  for (double factor : factors) {
    std::printf("capacity %.3f mc:\n%s\n", factor,
                bench::boxplot_panel(grid, rows, factor).to_ascii().c_str());
  }
  bench::write_grid_csv(options, "fig09_hf_heuristics", grid);
  return 0;
}
