#pragma once

/// \file registry.hpp
/// The 14 scheduling heuristics of the paper, defined once: one table row
/// per heuristic, keyed by the acronym its figures use. A row says what
/// the heuristic *is* — a static order over an instance (OS and the
/// static family) or a dynamic selection criterion (the dynamic family,
/// and the corrected family over a Johnson base order) — and
/// Heuristic::step runs any row on one batch of tasks from a carried
/// engine state. Every other surface is built on the table: the string-
/// keyed SolverRegistry registers one solver per row, `auto` and
/// `auto:FAMILY` fold over rows (best_of below), the batch runtime steps
/// rows batch by batch, and the milp warm start and the local-search seed
/// iterate it. A new heuristic is one new row.

#include <span>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/simulate.hpp"
#include "heuristics/dynamic.hpp"

namespace dts {

class Executor;  // support/parallel_for.hpp

/// The paper's three heuristic families plus the submission baseline
/// (Figs. 10/12/13 compare the best variant of each family against OS).
enum class HeuristicFamily { kBaseline, kStatic, kDynamic, kCorrected };

/// Display name of a family ("Baseline", "Static", "Dynamic",
/// "Static+Dynamic").
[[nodiscard]] std::string_view name_of(HeuristicFamily family) noexcept;

/// One row of the table.
struct Heuristic {
  /// A static processing order over an instance (ids into it). The
  /// capacity is an input of First-Fit bin packing only.
  using OrderFn = std::vector<TaskId> (*)(const Instance& inst, Mem capacity);

  std::string_view name;  ///< paper acronym, e.g. "OOLCMR"
  HeuristicFamily family;
  std::string_view description;
  /// Baseline and static rows: the order to execute. Null otherwise.
  OrderFn order = nullptr;
  /// Dynamic and corrected rows: the selection criterion.
  DynamicCriterion criterion = DynamicCriterion::kLargestComm;

  /// Schedules `ids` (task ids of `inst`, in tie-breaking priority order)
  /// continuing from `state`, writing start times into `out`. Order
  /// decisions — the static order, the Johnson base order of a corrected
  /// row, the dynamic candidates — consider the tasks of `ids` only;
  /// `ci` is the compiled form of `inst` and `scratch` the candidate
  /// index, both reusable across steps. Throws std::invalid_argument when
  /// a task cannot fit in the capacity.
  void step(const Instance& inst, const CompiledInstance& ci,
            std::span<const TaskId> ids, ExecutionState& state, Schedule& out,
            detail::CandidateScratch& scratch) const;

  /// The heuristic on the whole instance: step over the submission order
  /// from a fresh engine.
  [[nodiscard]] Schedule run(const Instance& inst, const CompiledInstance& ci,
                             Mem capacity) const;
};

/// Every row, in the paper's display order.
[[nodiscard]] std::span<const Heuristic> heuristics() noexcept;

/// The row of an acronym (case-sensitive), or null.
[[nodiscard]] const Heuristic* find_heuristic(std::string_view name) noexcept;

/// One candidate of a best_of fold.
struct CandidateRun {
  const Heuristic* heuristic = nullptr;
  Schedule schedule;
  Time makespan = kInfiniteTime;
  double wall_seconds = 0.0;  ///< this candidate's run, wall clock
};

/// Every candidate's run and the index of the winner: the first candidate
/// with the smallest makespan.
struct BestOf {
  std::vector<CandidateRun> runs;  ///< one per candidate, in order
  std::size_t best = 0;
};

/// Runs every candidate on the whole instance and keeps the best — the
/// paper's envisioned auto-selecting runtime. The instance is compiled
/// once and shared by all candidates; `executor` may run them
/// concurrently, and the winner is the same either way (the fold scans
/// the runs in candidate order). An empty instance has makespan 0.
[[nodiscard]] BestOf best_of(std::span<const Heuristic* const> candidates,
                             const Instance& inst, Mem capacity,
                             Executor& executor);

}  // namespace dts
