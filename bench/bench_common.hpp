#pragma once

/// Shared machinery for the figure-regeneration harnesses: command-line
/// knobs, the (trace x capacity x heuristic) ratio grids of the paper's
/// evaluation, boxplot table rendering, and CSV export.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "report/stats.hpp"
#include "report/table.hpp"
#include "trace/generators.hpp"

namespace dts::bench {

/// Common knobs: --traces=N (default 150, the paper's process count),
/// --seed=S (default 1), --csv-dir=PATH (default ./bench_csv; empty
/// disables CSV output), --quick (25 traces).
struct Options {
  std::size_t traces = 150;
  std::uint64_t seed = 1;
  std::string csv_dir = "bench_csv";

  static Options parse(int argc, char** argv);
};

/// The paper's capacity grid: mc..2mc in increments of 0.125 mc.
[[nodiscard]] std::vector<double> capacity_factors();

/// Every row of the heuristic table (core/registry.hpp), display order.
[[nodiscard]] std::vector<const Heuristic*> all_rows();

/// Ratio-to-OMIM samples for one heuristic at one capacity factor.
struct RatioCell {
  const Heuristic* heuristic = nullptr;
  double factor = 1.0;
  std::vector<double> ratios;  ///< one entry per trace
};

/// Evaluates `ids` over `traces` for every factor in `factors`, in
/// parallel over traces. Each trace uses its own mc. Ratios are
/// makespan / OMIM of that trace.
[[nodiscard]] std::vector<RatioCell> ratio_grid(
    const std::vector<Instance>& traces, const std::vector<double>& factors,
    const std::vector<const Heuristic*>& rows);

/// Looks up a cell (by id and factor) in a grid.
[[nodiscard]] const RatioCell* find_cell(const std::vector<RatioCell>& grid,
                                         const Heuristic* heuristic,
                                         double factor);

/// Renders the boxplot table for one capacity factor (rows = heuristics):
/// the textual equivalent of one panel of the paper's Figs. 9 and 11.
[[nodiscard]] TextTable boxplot_panel(const std::vector<RatioCell>& grid,
                                      const std::vector<const Heuristic*>& rows,
                                      double factor);

/// Writes the full grid as tidy CSV (heuristic, factor, trace, ratio) for
/// external plotting. No-op when options.csv_dir is empty.
void write_grid_csv(const Options& options, const std::string& figure,
                    const std::vector<RatioCell>& grid);

/// Writes an arbitrary table as CSV next to the other figure outputs.
void write_table_csv(const Options& options, const std::string& figure,
                     const TextTable& table);

/// Best variant of each family per factor ("Best Static" etc. of
/// Figs. 10/12/13): for each trace, the family's best ratio; summarized
/// over traces.
struct FamilyCurve {
  HeuristicFamily family;
  std::vector<double> median_per_factor;
  std::vector<double> mean_per_factor;
};

[[nodiscard]] std::vector<FamilyCurve> best_variant_curves(
    const std::vector<RatioCell>& grid, const std::vector<double>& factors);

/// Generates the evaluation corpus for a kernel under the options.
[[nodiscard]] std::vector<Instance> corpus(ChemistryKernel kernel,
                                           const Options& options);

}  // namespace dts::bench
