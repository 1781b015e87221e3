#include "heuristics/dynamic.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dts {

std::string_view to_acronym(DynamicCriterion c) noexcept {
  switch (c) {
    case DynamicCriterion::kLargestComm: return "LCMR";
    case DynamicCriterion::kSmallestComm: return "SCMR";
    case DynamicCriterion::kMaxAcceleration: return "MAMR";
  }
  return "?";
}

namespace {

/// Strictly better under the criterion (used after the idle filter).
bool criterion_better(const CompiledInstance& ci, TaskId a, TaskId b,
                      DynamicCriterion c) {
  switch (c) {
    case DynamicCriterion::kLargestComm: return ci.comm(a) > ci.comm(b);
    case DynamicCriterion::kSmallestComm: return ci.comm(a) < ci.comm(b);
    case DynamicCriterion::kMaxAcceleration:
      return ci.acceleration(a) > ci.acceleration(b);
  }
  return false;
}

/// Cold error funnel for the cross-batch deadlock: every pending task
/// waits on a predecessor that is neither pending nor scheduled.
[[noreturn]] void throw_unready_pending(const char* who,
                                        const CompiledInstance& ci,
                                        const Schedule& out,
                                        std::span<const TaskId> pending) {
  for (const TaskId id : pending) {
    for (const TaskId dep : ci.deps(id)) {
      if (!out[dep].scheduled()) {
        throw std::invalid_argument(
            std::string(who) + ": task " + std::to_string(id) +
            " waits on predecessor " + std::to_string(dep) +
            " which is neither scheduled nor pending here");
      }
    }
  }
  throw std::logic_error(std::string(who) + ": no pending task is ready");
}

}  // namespace

TaskId pick_candidate(const CompiledInstance& ci, const ExecutionState& state,
                      std::span<const TaskId> candidates,
                      DynamicCriterion criterion, std::span<const Time> ready) {
  const Time now = state.now();
  const Time comp_avail = state.comp_available();
  TaskId best = kInvalidTask;
  Time best_idle = kInfiniteTime;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const TaskId id = candidates[k];
    // Induced idle: max(0, max(now, channel clock) + comm - processor-free)
    // — floored at the candidate's predecessor completion instant when
    // given.
    Time start = std::max(now, state.comm_available(ci.channel(id)));
    if (!ready.empty()) start = std::max(start, ready[k]);
    const Time idle = std::max(0.0, start + ci.comm(id) - comp_avail);
    const bool strictly_less_idle = best != kInvalidTask && definitely_less(idle, best_idle);
    const bool tied_idle = best != kInvalidTask &&
                           !definitely_less(idle, best_idle) &&
                           !definitely_less(best_idle, idle);
    if (best == kInvalidTask || strictly_less_idle ||
        (tied_idle && criterion_better(ci, id, best, criterion))) {
      best = id;
      best_idle = idle;
    }
  }
  return best;
}

namespace detail {

bool deps_ready(const CompiledInstance& ci, const Schedule& out, TaskId id,
                Time& ready) {
  for (const TaskId dep : ci.deps(id)) {
    const TaskTimes& pred = out[dep];
    if (!pred.scheduled()) return false;
    ready = std::max(ready, pred.comp_start + ci.comp(dep));
  }
  return true;
}

void issue_task(const CompiledInstance& ci, TaskId id, Time ready,
                ExecutionState& state, Schedule& out) {
  const TaskTimes tt = state.issue(id, ci.comm(id), ci.comp(id), ci.mem(id),
                                   ci.channel(id), ready);
  out.set(id, tt.comm_start, tt.comp_start);
}

void dynamic_step(const char* who, const CompiledInstance& ci,
                  std::vector<TaskId>& pending, DynamicCriterion criterion,
                  ExecutionState& state, Schedule& out,
                  CandidateScratch& scratch) {
  const bool dag = ci.has_dependencies();
  scratch.fitting.clear();
  scratch.floors.clear();
  bool any_ready = !dag;
  for (TaskId id : pending) {
    Time ready = 0.0;
    if (dag) {
      if (!deps_ready(ci, out, id, ready)) continue;
      any_ready = true;
    }
    if (state.fits(ci.mem(id))) {
      scratch.fitting.push_back(id);
      if (dag) scratch.floors.push_back(ready);
    }
  }
  if (scratch.fitting.empty()) {
    if (!any_ready) throw_unready_pending(who, ci, out, pending);
    if (!state.advance_to_next_release()) {
      throw std::invalid_argument(
          std::string(who) + ": a pending task exceeds the memory capacity");
    }
    return;
  }
  const TaskId chosen =
      pick_candidate(ci, state, scratch.fitting, criterion, scratch.floors);
  const auto pos = static_cast<std::size_t>(
      std::find(scratch.fitting.begin(), scratch.fitting.end(), chosen) -
      scratch.fitting.begin());
  issue_task(ci, chosen, dag ? scratch.floors[pos] : 0.0, state, out);
  pending.erase(std::find(pending.begin(), pending.end(), chosen));
}

}  // namespace detail

void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, ExecutionState& state,
                     Schedule& out) {
  std::vector<TaskId> pending(ids.begin(), ids.end());
  detail::CandidateScratch scratch;
  scratch.fitting.reserve(pending.size());
  while (!pending.empty()) {
    detail::dynamic_step("execute_dynamic", ci, pending, criterion, state, out,
                         scratch);
  }
}

Schedule schedule_dynamic(const Instance& inst, DynamicCriterion criterion,
                          Mem capacity) {
  ExecutionState state(capacity, inst.num_channels());
  Schedule sched(inst.size());
  const std::vector<TaskId> ids = inst.submission_order();
  execute_dynamic(CompiledInstance(inst), ids, criterion, state, sched);
  return sched;
}

}  // namespace dts
