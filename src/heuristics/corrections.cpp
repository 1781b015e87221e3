#include "heuristics/corrections.hpp"

#include <stdexcept>

namespace dts {

void execute_corrected(const CompiledInstance& ci,
                       std::span<const TaskId> base_order,
                       DynamicCriterion criterion, ExecutionState& state,
                       Schedule& out, detail::CandidateScratch& scratch) {
  scratch.build(ci, base_order, criterion, out);
  while (!scratch.empty()) {
    // The static plan remains viable while its head is runnable and fits:
    // follow it. Otherwise (blocked by memory or, on a DAG, by an
    // unscheduled predecessor) correct with one dynamic decision.
    const std::size_t head = scratch.head();
    if (scratch.ready(head) && state.fits(ci.mem(scratch.task(head)))) {
      scratch.issue(ci, head, state, out);
    } else {
      detail::dynamic_step("execute_corrected", ci, state, out, scratch);
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
  detail::CandidateScratch scratch;
  execute_corrected(CompiledInstance(inst), base_order, criterion, state,
                    sched, scratch);
  return sched;
}

}  // namespace dts
