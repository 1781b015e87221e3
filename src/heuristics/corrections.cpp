#include "heuristics/corrections.hpp"

#include <stdexcept>

#include "core/johnson.hpp"

namespace dts {

std::string_view to_corrected_acronym(DynamicCriterion c) noexcept {
  switch (c) {
    case DynamicCriterion::kLargestComm: return "OOLCMR";
    case DynamicCriterion::kSmallestComm: return "OOSCMR";
    case DynamicCriterion::kMaxAcceleration: return "OOMAMR";
  }
  return "?";
}

void execute_corrected(const CompiledInstance& ci,
                       std::span<const TaskId> base_order,
                       DynamicCriterion criterion, ExecutionState& state,
                       Schedule& out) {
  const bool dag = ci.has_dependencies();
  std::vector<TaskId> pending(base_order.begin(), base_order.end());
  detail::CandidateScratch scratch;
  scratch.fitting.reserve(pending.size());
  while (!pending.empty()) {
    // The static plan remains viable while its head is runnable and fits:
    // follow it. Otherwise (blocked by memory or, on a DAG, by an
    // unscheduled predecessor) correct with one dynamic decision.
    const TaskId head = pending.front();
    Time ready = 0.0;
    if ((!dag || detail::deps_ready(ci, out, head, ready)) &&
        state.fits(ci.mem(head))) {
      detail::issue_task(ci, head, ready, state, out);
      pending.erase(pending.begin());
    } else {
      detail::dynamic_step("execute_corrected", ci, pending, criterion, state,
                           out, scratch);
    }
  }
}

Schedule schedule_corrected_with_order(const Instance& inst,
                                       std::span<const TaskId> base_order,
                                       DynamicCriterion criterion,
                                       Mem capacity) {
  if (base_order.size() != inst.size()) {
    throw std::invalid_argument(
        "schedule_corrected_with_order: base order must cover all tasks");
  }
  ExecutionState state(capacity, inst.num_channels());
  Schedule sched(inst.size());
  execute_corrected(CompiledInstance(inst), base_order, criterion, state,
                    sched);
  return sched;
}

Schedule schedule_corrected(const Instance& inst, DynamicCriterion criterion,
                            Mem capacity) {
  std::vector<TaskId> base = johnson_order(inst);
  if (inst.has_dependencies()) base = legalize_order(inst, base);
  return schedule_corrected_with_order(inst, base, criterion, capacity);
}

}  // namespace dts
