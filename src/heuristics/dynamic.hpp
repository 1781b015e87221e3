#pragma once

/// \file dynamic.hpp
/// Dynamic selection heuristics (paper §4.2). Whenever the link goes idle,
/// the scheduler examines the tasks that fit in the memory currently
/// available, keeps those that inject the least idle time on the processor,
/// and picks one according to a criterion:
///
///   LCMR  largest communication time
///   SCMR  smallest communication time
///   MAMR  maximum CP/CM ratio ("maximum accelerated")
///
/// If nothing fits, the link stays idle until the next computation finishes
/// and releases memory. Communication and computation keep a common order.

#include <span>
#include <string_view>
#include <vector>

#include "core/compiled.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/simulate.hpp"

namespace dts {

enum class DynamicCriterion {
  kLargestComm,      ///< LCMR / OOLCMR
  kSmallestComm,     ///< SCMR / OOSCMR
  kMaxAcceleration,  ///< MAMR / OOMAMR
};

/// Paper acronym of the pure dynamic heuristic ("LCMR", ...).
[[nodiscard]] std::string_view to_acronym(DynamicCriterion c) noexcept;

/// Among `candidates` (ids into `ci`, all assumed to fit in memory at the
/// engine's current instant), returns the id preferred by the paper's rule:
/// minimum induced processor idle — max(0, transfer start + CM - processor
/// free) — first, then the criterion, ties by the earliest position in
/// `candidates`. Returns kInvalidTask when empty.
/// `ready` (optional, aligned with `candidates`) floors each candidate's
/// hypothetical transfer start at its predecessors' completion instant,
/// so the induced-idle score matches what issuing it would actually do on
/// a DAG instance; empty means no floors (the paper's model).
[[nodiscard]] TaskId pick_candidate(const CompiledInstance& ci,
                                    const ExecutionState& state,
                                    std::span<const TaskId> candidates,
                                    DynamicCriterion criterion,
                                    std::span<const Time> ready = {});

/// Schedules every id in `ids` (ids into `ci`) on `state` using dynamic
/// selection, writing start times into `out`. `ids` supplies the
/// tie-breaking priority (its order is the submission order within a
/// batch). On a DAG instance only tasks whose predecessors have all been
/// scheduled (in `out` — possibly by an earlier batch sharing it) are
/// candidates, and each transfer waits for its predecessors'
/// computations; throws std::invalid_argument when every pending task
/// waits on a predecessor outside `ids` that was never scheduled.
///
/// The one home of the scheduling loop and its dependency gating
/// (tools/dts_lint.py `executor-one-home` keeps it that way); callers
/// compile the instance once and reuse it.
void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, ExecutionState& state,
                     Schedule& out);

/// Convenience: run on a fresh engine over all tasks.
[[nodiscard]] Schedule schedule_dynamic(const Instance& inst,
                                        DynamicCriterion criterion,
                                        Mem capacity);

namespace detail {

/// Predecessor readiness of `id` against the starts recorded in `out`:
/// false when a predecessor is unscheduled, otherwise raises `ready` to
/// the latest predecessor computation end (DAG instances only).
bool deps_ready(const CompiledInstance& ci, const Schedule& out, TaskId id,
                Time& ready);

/// Issues task `id` of `ci` on `state` with transfer floor `ready` and
/// records its start times in `out`.
void issue_task(const CompiledInstance& ci, TaskId id, Time ready,
                ExecutionState& state, Schedule& out);

/// Candidate buffers reused across dynamic_step calls.
struct CandidateScratch {
  std::vector<TaskId> fitting;
  std::vector<Time> floors;  ///< aligned with `fitting`, DAG instances only
};

/// One dynamic decision over `pending` (the executor shared by the
/// dynamic and corrected heuristics): issues the runnable fitting task
/// pick_candidate prefers and erases it from `pending`, or — when nothing
/// runnable fits — advances the engine to the next memory release.
/// Throws std::invalid_argument, prefixed with `who`, when no pending
/// task can ever run.
void dynamic_step(const char* who, const CompiledInstance& ci,
                  std::vector<TaskId>& pending, DynamicCriterion criterion,
                  ExecutionState& state, Schedule& out,
                  CandidateScratch& scratch);

}  // namespace detail

}  // namespace dts
