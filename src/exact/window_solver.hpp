#pragma once

/// \file window_solver.hpp
/// The paper's iterative MILP heuristic (§4.5), with the GLPK solver
/// replaced by exact window optimization (see DESIGN.md §5: the MILP is
/// used only to optimally order each k-task window, so any exact window
/// optimizer explores the same space). Tasks are processed in submission
/// order in windows of k = 3..6; events of tasks started before a window
/// boundary are fixed (the carried engine snapshot), the window's tasks
/// are re-optimized from scratch.
///
/// Two window optimizers are available:
///  * kCommonOrder — exhaustive over permutation schedules (the default;
///    fast, k! candidates);
///  * kPairOrder — the branch & bound over independent comm/comp orders,
///    exactly the MILP's solution space (k!^2 candidates, still exact).
///
/// Both modes accept any channel count: the common-order engine keeps one
/// clock per copy engine, and the pair-order search enumerates the global
/// chronological transfer order (which induces one sequence per engine)
/// next to the computation order, carrying the multi-clock snapshot across
/// window boundaries.

#include <cstdint>
#include <functional>
#include <string>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

class Executor;  // support/parallel_for.hpp

enum class WindowMode {
  kCommonOrder,
  kPairOrder,
};

struct WindowOptions {
  std::size_t window = 4;                       ///< the k in lp.k
  WindowMode mode = WindowMode::kCommonOrder;
  /// Polled at every window boundary (and inside the pair-order search).
  /// When it returns true, the remaining tasks are drained in submission
  /// order from the carried engine state, so the result is always a
  /// complete feasible schedule.
  std::function<bool()> should_stop;
  /// Optional fan-out (support/parallel_for.hpp): each window's
  /// common-order enumeration splits its first-task branches across
  /// workers (see ExhaustiveOptions::executor); the window-by-window outer
  /// loop stays sequential (each window starts from the previous one's
  /// state).
  Executor* executor = nullptr;
  /// Pair mode only: feed each window search the carried-state-valid
  /// capacity-aware lower bound, so it stops as soon as an incumbent
  /// provably matches instead of scanning the remaining pair space. The
  /// schedule is identical either way (no later pair can definitely beat
  /// an incumbent that reached a proven bound); off is useful only to
  /// measure the pruning itself.
  bool use_lower_bounds = true;
};

/// schedule_windowed plus how the run ended.
struct WindowedResult {
  Schedule schedule;
  /// should_stop fired; the tail of the schedule is the submission-order
  /// fallback rather than window-optimized.
  bool stopped = false;
  /// Windows that were actually optimized before any stop.
  std::size_t windows_optimized = 0;
  /// Pair mode: order pairs co-simulated across all windows — the work
  /// metric the lower-bound early exit (use_lower_bounds) reduces.
  std::uint64_t pairs_simulated = 0;
  /// Pair mode: windows whose search ended by reaching the proven lower
  /// bound rather than by exhausting the pair space.
  std::size_t windows_proved = 0;
};

/// Display name used in the figures, e.g. "lp.4".
[[nodiscard]] std::string window_heuristic_name(const WindowOptions& options);

/// Schedules the instance window-by-window, optimally within each window
/// given the state carried from the previous ones. Throws
/// std::invalid_argument for window == 0, window > 8 (search explosion) or
/// a task that exceeds `capacity`.
[[nodiscard]] WindowedResult solve_windowed(const Instance& inst, Mem capacity,
                                            const WindowOptions& options);

/// Convenience: the schedule of solve_windowed.
[[nodiscard]] Schedule schedule_windowed(const Instance& inst, Mem capacity,
                                         const WindowOptions& options);

}  // namespace dts
