#pragma once

/// \file recommend.hpp
/// Codifies Table 6 ("Heuristics and their favorable scenarios") as an
/// executable recommender: given an instance and a capacity, classify the
/// capacity regime and the workload mix, and return the heuristic the
/// paper's table favors. The `bench/table6_favorable` harness checks these
/// recommendations empirically against synthetic workloads of each regime.

#include <string>
#include <string_view>

#include "core/instance.hpp"

namespace dts {

/// How constrained the memory is relative to what the unconstrained
/// (Johnson) schedule would like to use.
enum class CapacityRegime {
  kUnconstrained,  ///< capacity >= peak memory of the Johnson schedule
  kModerate,       ///< constrained, but close to the unconstrained peak
  kLimited,        ///< close to the minimum feasible capacity mc
};

[[nodiscard]] std::string_view to_string(CapacityRegime regime) noexcept;

/// Classifies `capacity` against the Johnson schedule's memory envelope.
/// The moderate/limited split follows the paper's empirical reading: above
/// ~1.5x the minimum capacity the corrections heuristics dominate, below
/// it the dynamic ones do.
[[nodiscard]] CapacityRegime classify_capacity(const Instance& inst,
                                               Mem capacity);

struct Recommendation {
  std::string_view primary;  ///< acronym of a heuristic-table row
  CapacityRegime regime;
  std::string rationale;  ///< the matching Table 6 row, spelled out
};

/// Table 6 lookup. Workload descriptors used:
///  * compute-intensive fraction (CP >= CM tasks);
///  * whether compute-intensive tasks have systematically smaller or
///    larger communication times than the rest (drives LCMR vs SCMR).
[[nodiscard]] Recommendation recommend(const Instance& inst, Mem capacity);

}  // namespace dts
