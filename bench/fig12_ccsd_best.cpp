/// Fig. 12 — CCSD: the best variant of each heuristic family versus
/// memory capacity. Shape to reproduce: dynamic and corrections beat
/// static under tight memory; corrections lead at moderate capacity;
/// static closes the gap near 2 mc.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dts;
  const bench::Options options = bench::Options::parse(argc, argv);

  const std::vector<Instance> traces =
      bench::corpus(ChemistryKernel::kCoupledClusterSD, options);
  const std::vector<double> factors = bench::capacity_factors();
  const std::vector<bench::RatioCell> grid =
      bench::ratio_grid(traces, factors, bench::all_rows());
  const auto curves = bench::best_variant_curves(grid, factors);

  TextTable table({"capacity", "OS", "Best Static", "Best Dynamic",
                   "Best Static Dynamic"});
  for (std::size_t f = 0; f < factors.size(); ++f) {
    std::vector<std::string> row{format_fixed(factors[f], 3) + " mc"};
    for (const bench::FamilyCurve& curve : curves) {
      row.push_back(format_fixed(curve.median_per_factor[f], 4));
    }
    table.add_row(std::move(row));
  }
  std::printf("Fig. 12 — CCSD best variants (median ratio to OMIM over %zu "
              "traces):\n%s",
              traces.size(), table.to_ascii().c_str());
  bench::write_table_csv(options, "fig12_ccsd_best", table);
  return 0;
}
