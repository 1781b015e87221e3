#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "core/johnson.hpp"
#include "core/solver.hpp"
#include "report/csv.hpp"
#include "support/parallel_for.hpp"

namespace dts::bench {

Options Options::parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (const auto traces = value_of("--traces=")) {
      options.traces = static_cast<std::size_t>(std::stoull(*traces));
    } else if (const auto seed = value_of("--seed=")) {
      options.seed = std::stoull(*seed);
    } else if (const auto dir = value_of("--csv-dir=")) {
      options.csv_dir = *dir;
    } else if (arg == "--quick") {
      options.traces = 25;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "options: --traces=N (default 150)  --seed=S  --csv-dir=PATH "
          "(empty disables)  --quick (25 traces)\n");
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown option: " + arg);
    }
  }
  return options;
}

std::vector<double> capacity_factors() {
  std::vector<double> factors;
  for (int k = 0; k <= 8; ++k) factors.push_back(1.0 + 0.125 * k);
  return factors;
}

std::vector<const Heuristic*> all_rows() {
  std::vector<const Heuristic*> rows;
  for (const Heuristic& h : heuristics()) rows.push_back(&h);
  return rows;
}

std::vector<RatioCell> ratio_grid(const std::vector<Instance>& traces,
                                  const std::vector<double>& factors,
                                  const std::vector<const Heuristic*>& rows) {
  // Per-trace OMIM and mc, computed once.
  std::vector<Time> omims(traces.size());
  std::vector<Mem> mcs(traces.size());
  parallel_for(0, traces.size(), [&](std::size_t t) {
    omims[t] = omim(traces[t]);
    mcs[t] = traces[t].min_capacity();
  });

  std::vector<RatioCell> grid;
  grid.reserve(factors.size() * rows.size());
  for (double factor : factors) {
    for (const Heuristic* h : rows) {
      grid.push_back(RatioCell{h, factor, std::vector<double>(traces.size())});
    }
  }
  // Parallelize over traces; one SolveRequest per trace, re-aimed at each
  // capacity, is reused across heuristics. Bounds are precomputed above,
  // so the solve() calls skip them.
  SolveOptions options;
  options.compute_bounds = false;
  parallel_for(0, traces.size(), [&](std::size_t t) {
    SolveRequest request;
    request.instance = traces[t];
    for (std::size_t fi = 0; fi < factors.size(); ++fi) {
      request.capacity = mcs[t] * factors[fi];
      for (std::size_t hi = 0; hi < rows.size(); ++hi) {
        const Time ms = solve(request, rows[hi]->name, options).makespan;
        grid[fi * rows.size() + hi].ratios[t] =
            omims[t] > 0.0 ? ms / omims[t] : 1.0;
      }
    }
  });
  return grid;
}

const RatioCell* find_cell(const std::vector<RatioCell>& grid,
                           const Heuristic* heuristic, double factor) {
  for (const RatioCell& cell : grid) {
    if (cell.heuristic == heuristic && cell.factor == factor) return &cell;
  }
  return nullptr;
}

TextTable boxplot_panel(const std::vector<RatioCell>& grid,
                        const std::vector<const Heuristic*>& rows,
                        double factor) {
  TextTable table({"heuristic", "min", "q1", "median", "q3", "max",
                   "outliers"});
  for (const Heuristic* h : rows) {
    const RatioCell* cell = find_cell(grid, h, factor);
    if (cell == nullptr) continue;
    const BoxplotSummary s = summarize(cell->ratios);
    table.add_row({std::string(h->name), format_fixed(s.min, 4),
                   format_fixed(s.q1, 4), format_fixed(s.median, 4),
                   format_fixed(s.q3, 4), format_fixed(s.max, 4),
                   std::to_string(s.outliers.size())});
  }
  return table;
}

namespace {

std::optional<std::filesystem::path> csv_path(const Options& options,
                                              const std::string& figure) {
  if (options.csv_dir.empty()) return std::nullopt;
  std::filesystem::create_directories(options.csv_dir);
  return std::filesystem::path(options.csv_dir) / (figure + ".csv");
}

}  // namespace

void write_grid_csv(const Options& options, const std::string& figure,
                    const std::vector<RatioCell>& grid) {
  const auto path = csv_path(options, figure);
  if (!path) return;
  const std::vector<std::string> header{"heuristic", "capacity_factor",
                                        "trace", "ratio_to_omim"};
  std::vector<std::vector<std::string>> rows;
  for (const RatioCell& cell : grid) {
    for (std::size_t t = 0; t < cell.ratios.size(); ++t) {
      rows.push_back({std::string(cell.heuristic->name),
                      format_fixed(cell.factor, 3), std::to_string(t),
                      format_fixed(cell.ratios[t], 6)});
    }
  }
  write_csv_file(*path, header, rows);
  std::printf("[csv] %s\n", path->c_str());
}

void write_table_csv(const Options& options, const std::string& figure,
                     const TextTable& table) {
  const auto path = csv_path(options, figure);
  if (!path) return;
  write_csv_file(*path, table.headers(), table.body());
  std::printf("[csv] %s\n", path->c_str());
}

std::vector<FamilyCurve> best_variant_curves(
    const std::vector<RatioCell>& grid, const std::vector<double>& factors) {
  std::vector<FamilyCurve> curves;
  for (HeuristicFamily family :
       {HeuristicFamily::kBaseline, HeuristicFamily::kStatic,
        HeuristicFamily::kDynamic, HeuristicFamily::kCorrected}) {
    FamilyCurve curve;
    curve.family = family;
    for (double factor : factors) {
      // Per trace, take the family's best ratio, then summarize.
      std::vector<double> best;
      for (const Heuristic& h : heuristics()) {
        if (h.family != family) continue;
        const RatioCell* cell = find_cell(grid, &h, factor);
        if (cell == nullptr) continue;
        if (best.empty()) {
          best = cell->ratios;
        } else {
          for (std::size_t t = 0; t < best.size(); ++t) {
            best[t] = std::min(best[t], cell->ratios[t]);
          }
        }
      }
      const BoxplotSummary s = summarize(std::move(best));
      curve.median_per_factor.push_back(s.median);
      curve.mean_per_factor.push_back(s.mean);
    }
    curves.push_back(std::move(curve));
  }
  return curves;
}

std::vector<Instance> corpus(ChemistryKernel kernel, const Options& options) {
  return generate_process_traces(kernel, options.traces, options.seed);
}

}  // namespace dts::bench
