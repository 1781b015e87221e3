#pragma once

/// \file batch.hpp
/// Batch scheduling (paper §6.3). A runtime scheduler rarely sees the whole
/// task set at once; it observes a limited window of independent tasks.
/// This module applies a heuristic to successive batches of `batch_size`
/// tasks (in submission order), carrying the link/processor availability
/// and the still-resident memory from one batch into the next — exactly
/// what a runtime that keeps issuing work would do. Each batch is one
/// Heuristic::step (core/registry.hpp) of a table row.

#include <cstddef>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/registry.hpp"
#include "core/schedule.hpp"

namespace dts {

class Executor;  // support/parallel_for.hpp

/// Runs `h` on consecutive batches of `batch_size` tasks sharing one
/// execution state. A batch's ordering decisions (Johnson order, GG
/// sequence, First-Fit bins, dynamic selection...) only consider the tasks
/// of that batch, mirroring the paper's setup. `batch_size` of 0 is
/// rejected; on an edge-free instance a size >= n is the plain heuristic.
[[nodiscard]] Schedule schedule_in_batches(const Heuristic& h,
                                           const Instance& inst, Mem capacity,
                                           std::size_t batch_size);

/// The online form of the paper's envisioned auto-selecting runtime: for
/// every batch, try each candidate heuristic from the state the previous
/// batches left behind (scheduling is simulation, so this is cheap), and
/// commit the one finishing the batch earliest (ties: earlier candidate,
/// then earlier link availability). Also reports which heuristic won each
/// batch.
struct BatchAutoResult {
  Schedule schedule;
  std::vector<const Heuristic*> winners;  ///< one per batch
};

/// `executor` (a SerialExecutor, ThreadExecutor or SolverPool) runs the
/// per-batch candidate trials — each an independent step of one candidate
/// from the carried engine state. The committed winner per batch is the
/// same on every executor: trials are independent and the reduction folds
/// them in candidate order with the same strict-preference rule.
[[nodiscard]] BatchAutoResult schedule_in_batches_auto(
    const Instance& inst, Mem capacity, std::size_t batch_size,
    std::span<const Heuristic* const> candidates, Executor& executor);

}  // namespace dts
