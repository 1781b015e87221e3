#pragma once

/// \file corrections.hpp
/// Static order with dynamic corrections (paper §4.3). A precomputed order
/// (by default the Johnson / OMIM order) is followed verbatim while its
/// next task fits in memory. When the head of the order does not fit, the
/// scheduler falls back to dynamic selection — among the *fitting* pending
/// tasks that induce minimum processor idle, pick per criterion — and
/// removes the selected task from the pending order:
///
///   OOLCMR  divert to the largest-communication fitting task
///   OOSCMR  divert to the smallest-communication fitting task
///   OOMAMR  divert to the highest CP/CM fitting task
///
/// When nothing fits at all, the link idles until the next computation
/// releases memory, after which the head of the order gets priority again.

#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/simulate.hpp"
#include "heuristics/dynamic.hpp"

namespace dts {

/// Runs the corrected policy over `base_order` (ids into `ci`) on an
/// existing engine, writing start times into `out`. The one home of the
/// correction loop (tools/dts_lint.py `executor-one-home`); its dynamic
/// fallback is the step execute_dynamic takes, dependency gating
/// included. Repeated callers compile the instance once and reuse it. The
/// head of the order is a cursor into the candidate index, so a schedule
/// costs O(n log n) like execute_dynamic's (see dynamic.hpp); `scratch`
/// holds the candidate buffers, as there.
void execute_corrected(const CompiledInstance& ci,
                       std::span<const TaskId> base_order,
                       DynamicCriterion criterion, ExecutionState& state,
                       Schedule& out, detail::CandidateScratch& scratch);

/// Corrected policy on a fresh engine with an explicit base order (the
/// paper's Fig. 6 examples feed a specific OMIM order).
[[nodiscard]] Schedule schedule_corrected_with_order(
    const Instance& inst, std::span<const TaskId> base_order,
    DynamicCriterion criterion, Mem capacity);

}  // namespace dts
