#pragma once

/// \file harness.hpp
/// What one workload run produces, and the two runners that produce it.
/// Every number here is raw: latencies, set-up times, counts. The
/// statistics (percentiles, medians, self times, slopes) are computed by
/// perfbench/metrics.py from this raw record and the span file.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "spans.hpp"

namespace perfbench {

/// One pass over a request list.
struct PassStats {
  std::vector<double> latencies_s;  ///< one per request, serving order
  double wall_s = 0.0;              ///< first request sent .. last reply
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Sum of log(makespan / OMIM) over requests with a makespan.
  double log_ratio_sum = 0.0;
  std::uint64_t ratio_count = 0;
  /// Exact counters (B&B nodes, MILP evaluations, cache outcomes, ...).
  std::map<std::string, std::uint64_t> counts;
  /// Every per-request output (makespan bits, winner, evaluations, cache
  /// outcome) folded in serving order.
  std::uint64_t digest = 0;
};

/// Everything a run hands to metrics.py.
struct WorkloadRun {
  std::vector<double> setup_s;     ///< one per set-up repetition
  PassStats timed;                 ///< untraced timed pass
  std::optional<PassStats> traced; ///< traced pass (--trace 1)
  std::uint64_t request_digest = 0;
  /// Set when a repeated request gave a different output within the run.
  bool nondeterministic = false;
  std::vector<std::string> notes;  ///< human-readable lines for stdout
};

struct RunOptions {
  std::size_t setup_repetitions = 5;
  bool timed_pass = true;
  /// Non-null: also run one traced pass, recording into this tracer.
  Tracer* tracer = nullptr;
};

[[nodiscard]] WorkloadRun run_solve_workload(const SolveCorpus& corpus,
                                             bool side_candidates,
                                             const RunOptions& options);

[[nodiscard]] WorkloadRun run_serve_workload(const ServeCorpus& corpus,
                                             const RunOptions& options);

/// 64-bit mix step for the output digests.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace perfbench
