/// Scaling in the task count n. For HF, CCSD and CCSD-DAG traces of n
/// tasks, times one `solve()` per polynomial solver (every heuristic,
/// duplex-balance, auto-batch and auto; candidates serial, bounds off)
/// and fits the log-log slope of milliseconds per solve against n:
///
///   slope ~1     O(n) / O(n log n): what every solver here should show;
///   slope ~2     a quadratic loop (the pre-index dynamic heuristics and
///                First-Fit bin packing sat there).
///
/// Each time is the median over five distinct traces of that size, each
/// solved once: one scheduler hiccup does not tilt a slope, and no input
/// repeats (a repeated input lets the branch predictor learn it, which
/// flatters small n). The makespan of the first trace at the largest n
/// rides along: a deterministic function of the seed and the solver.
///
/// Output lands in BENCH_scaling.json; CI guards it with
/// tools/check_bench_baseline.py (slope rows: an absolute ceiling of 1.4,
/// the makespan column the strict rule).
///
///   bench_scaling [--quick] [--seed=S] [--json=FILE]
///       sizes n = 1k, 4k, 16k, 64k (--quick: 1k, 2k, 4k, 8k)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "report/table.hpp"
#include "trace/generators.hpp"

namespace {

using namespace dts;

struct Options {
  bool quick = false;
  std::uint64_t seed = 1;
  std::string json = "BENCH_scaling.json";
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: bench_scaling [--quick] [--seed=S] [--json=FILE]\n");
      std::exit(2);
    }
  }
  return options;
}

struct Kernel {
  const char* name;
  Instance (*generate)(const TraceConfig&);
};

Instance generate_hf(const TraceConfig& c) {
  return generate_trace(ChemistryKernel::kHartreeFock, c);
}
Instance generate_ccsd(const TraceConfig& c) {
  return generate_trace(ChemistryKernel::kCoupledClusterSD, c);
}

constexpr Kernel kKernels[] = {{"HF", generate_hf},
                               {"CCSD", generate_ccsd},
                               {"CCSD-DAG", generate_ccsd_dag_trace}};

constexpr const char* kSolvers[] = {
    "OS",     "OOSIM",  "IOCMS",  "DOCPS",          "IOCCS",      "DOCCS",
    "GG",     "BP",     "LCMR",   "SCMR",           "MAMR",       "OOLCMR",
    "OOSCMR", "OOMAMR", "duplex-balance", "auto-batch", "auto"};

struct Row {
  std::string kernel;
  std::string solver;
  std::vector<std::size_t> tasks;
  std::vector<double> ms;
  double slope = 0.0;
  double makespan = 0.0;  ///< at the largest n
};

/// Least-squares slope of log(ms) against log(n).
double loglog_slope(const std::vector<std::size_t>& n,
                    const std::vector<double>& ms) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double k = static_cast<double>(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    const double x = std::log(static_cast<double>(n[i]));
    const double y = std::log(std::max(ms[i], 1e-6));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

/// Wall-clock milliseconds of one solve.
double time_solve(const SolveRequest& request, const char* solver,
                  const SolveOptions& options, Time& makespan) {
  const auto start = std::chrono::steady_clock::now();
  const SolveResult result = solve(request, solver, options);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  makespan = result.makespan;
  return ms;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const std::vector<std::size_t> sizes =
      options.quick ? std::vector<std::size_t>{1000, 2000, 4000, 8000}
                    : std::vector<std::size_t>{1000, 4000, 16000, 64000};
  // Distinct traces per size (seeds seed, seed+1, ...). Solving one
  // input again and again lets the branch predictor learn it, which
  // flatters small n and tilts the slope; each trace is solved once.
  constexpr std::size_t kTracesPerSize = 5;

  SolveOptions solve_options;
  solve_options.parallel_candidates = false;  // per-solver time adds up
  solve_options.compute_bounds = false;

  std::vector<Row> rows;
  for (const Kernel& kernel : kKernels) {
    std::vector<Row> kernel_rows;
    for (const char* solver : kSolvers) {
      kernel_rows.push_back(Row{kernel.name, solver, {}, {}, 0.0, 0.0});
    }
    for (const std::size_t n : sizes) {
      std::vector<SolveRequest> requests(kTracesPerSize);
      for (std::size_t t = 0; t < kTracesPerSize; ++t) {
        TraceConfig config;
        config.seed = options.seed + t;
        config.min_tasks = n;
        config.max_tasks = n;
        requests[t].instance = kernel.generate(config);
        requests[t].capacity = 1.25 * requests[t].instance.min_capacity();
      }
      for (Row& row : kernel_rows) {
        std::vector<double> ms;
        for (std::size_t t = 0; t < kTracesPerSize; ++t) {
          Time makespan = 0.0;
          ms.push_back(time_solve(requests[t], row.solver.c_str(),
                                  solve_options, makespan));
          if (t == 0) row.makespan = makespan;
        }
        row.ms.push_back(median(ms));
        row.tasks.push_back(requests[0].instance.size());
      }
    }
    for (Row& row : kernel_rows) {
      row.slope = loglog_slope(row.tasks, row.ms);
      rows.push_back(std::move(row));
    }
  }

  std::vector<std::string> header{"kernel", "solver"};
  for (const std::size_t n : sizes) {
    header.push_back("n=" + std::to_string(n / 1000) + "k ms");
  }
  header.emplace_back("slope");
  TextTable table(std::move(header));
  for (const Row& row : rows) {
    std::vector<std::string> cells{row.kernel, row.solver};
    char text[32];
    for (const double ms : row.ms) {
      std::snprintf(text, sizeof text, "%.3f", ms);
      cells.emplace_back(text);
    }
    std::snprintf(text, sizeof text, "%.2f", row.slope);
    cells.emplace_back(text);
    table.add_row(std::move(cells));
  }
  std::printf("Scaling — ms per solve (median of %zu traces), capacity "
              "1.25 mc, candidates serial\n\n%s",
              kTracesPerSize, table.to_ascii().c_str());

  // Hand-rolled JSON (no third-party deps in this container).
  std::ofstream json(options.json);
  if (!json) {
    std::fprintf(stderr, "cannot open %s\n", options.json.c_str());
    return 1;
  }
  json.precision(12);
  json << "{\n  \"bench\": \"scaling\",\n  \"seed\": " << options.seed
       << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"kernel\": \"" << row.kernel << "\", \"solver\": \""
         << row.solver << "\", \"tasks\": [";
    for (std::size_t k = 0; k < row.tasks.size(); ++k) {
      json << (k ? ", " : "") << row.tasks[k];
    }
    json << "], \"ms_per_solve\": [";
    for (std::size_t k = 0; k < row.ms.size(); ++k) {
      json << (k ? ", " : "") << row.ms[k];
    }
    json << "], \"slope\": " << row.slope
         << ", \"makespan_seconds\": " << row.makespan << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote %s\n", options.json.c_str());
  return 0;
}
