#include "core/registry.hpp"

#include <array>
#include <chrono>

#include "core/compiled.hpp"
#include "heuristics/bin_packing.hpp"
#include "heuristics/corrections.hpp"
#include "heuristics/gilmore_gomory.hpp"
#include "heuristics/static_orders.hpp"
#include "support/parallel_for.hpp"

namespace dts {

namespace {

template <StaticOrderPolicy kPolicy>
std::vector<TaskId> policy_order(const Instance& inst, Mem /*capacity*/) {
  return static_order(inst, kPolicy);
}

std::vector<TaskId> gg_order(const Instance& inst, Mem /*capacity*/) {
  return gilmore_gomory_order(inst);
}

constexpr Heuristic::OrderFn kJohnson =
    policy_order<StaticOrderPolicy::kJohnson>;

constexpr std::array<Heuristic, 14> kTable{{
    {"OS", HeuristicFamily::kBaseline, "order of submission",
     policy_order<StaticOrderPolicy::kSubmission>},
    {"OOSIM", HeuristicFamily::kStatic,
     "Johnson (infinite-memory optimal) order under the capacity", kJohnson},
    {"IOCMS", HeuristicFamily::kStatic, "non-decreasing communication time",
     policy_order<StaticOrderPolicy::kIncreasingComm>},
    {"DOCPS", HeuristicFamily::kStatic, "non-increasing computation time",
     policy_order<StaticOrderPolicy::kDecreasingComp>},
    {"IOCCS", HeuristicFamily::kStatic,
     "non-decreasing communication + computation",
     policy_order<StaticOrderPolicy::kIncreasingCommPlusComp>},
    {"DOCCS", HeuristicFamily::kStatic,
     "non-increasing communication + computation",
     policy_order<StaticOrderPolicy::kDecreasingCommPlusComp>},
    {"GG", HeuristicFamily::kStatic, "Gilmore-Gomory optimal no-wait sequence",
     gg_order},
    {"BP", HeuristicFamily::kStatic, "First-Fit memory bin packing",
     bin_packing_order},
    {"LCMR", HeuristicFamily::kDynamic,
     "largest communication among fitting, min-idle tasks", nullptr,
     DynamicCriterion::kLargestComm},
    {"SCMR", HeuristicFamily::kDynamic,
     "smallest communication among fitting, min-idle tasks", nullptr,
     DynamicCriterion::kSmallestComm},
    {"MAMR", HeuristicFamily::kDynamic,
     "maximum CP/CM ratio among fitting, min-idle tasks", nullptr,
     DynamicCriterion::kMaxAcceleration},
    {"OOLCMR", HeuristicFamily::kCorrected,
     "Johnson order, diverting to largest-communication fitting task",
     nullptr, DynamicCriterion::kLargestComm},
    {"OOSCMR", HeuristicFamily::kCorrected,
     "Johnson order, diverting to smallest-communication fitting task",
     nullptr, DynamicCriterion::kSmallestComm},
    {"OOMAMR", HeuristicFamily::kCorrected,
     "Johnson order, diverting to highest CP/CM fitting task", nullptr,
     DynamicCriterion::kMaxAcceleration},
}};

/// True when `ids` is the submission order of the whole instance.
bool whole_instance(const Instance& inst, std::span<const TaskId> ids) {
  if (ids.size() != inst.size()) return false;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] != k) return false;
  }
  return true;
}

/// `order`'s processing order of the tasks in `ids`, repaired against
/// their internal edges (identity on edge-free instances). A proper batch
/// is ordered as its subset instance, whose positions map back to ids;
/// the whole instance is ordered in place, without the copy.
std::vector<TaskId> order_over(Heuristic::OrderFn order, const Instance& inst,
                               std::span<const TaskId> ids, Mem capacity) {
  if (whole_instance(inst, ids)) {
    std::vector<TaskId> global = order(inst, capacity);
    if (inst.has_dependencies()) global = legalize_order(inst, global);
    return global;
  }
  const Instance sub = inst.subset(ids);
  std::vector<TaskId> local = order(sub, capacity);
  if (sub.has_dependencies()) local = legalize_order(sub, local);
  for (TaskId& id : local) id = ids[id];
  return local;
}

}  // namespace

std::string_view name_of(HeuristicFamily family) noexcept {
  switch (family) {
    case HeuristicFamily::kBaseline: return "Baseline";
    case HeuristicFamily::kStatic: return "Static";
    case HeuristicFamily::kDynamic: return "Dynamic";
    case HeuristicFamily::kCorrected: return "Static+Dynamic";
  }
  return "?";
}

void Heuristic::step(const Instance& inst, const CompiledInstance& ci,
                     std::span<const TaskId> ids, ExecutionState& state,
                     Schedule& out, detail::CandidateScratch& scratch) const {
  if (order != nullptr) {
    execute_order(inst, order_over(order, inst, ids, state.capacity()), state,
                  out);
  } else if (family == HeuristicFamily::kCorrected) {
    execute_corrected(ci, order_over(kJohnson, inst, ids, state.capacity()),
                      criterion, state, out, scratch);
  } else {
    execute_dynamic(ci, ids, criterion, state, out, scratch);
  }
}

Schedule Heuristic::run(const Instance& inst, const CompiledInstance& ci,
                        Mem capacity) const {
  ExecutionState state(capacity, inst.num_channels());
  Schedule out(inst.size());
  detail::CandidateScratch scratch;
  step(inst, ci, inst.submission_order(), state, out, scratch);
  return out;
}

std::span<const Heuristic> heuristics() noexcept { return kTable; }

const Heuristic* find_heuristic(std::string_view name) noexcept {
  for (const Heuristic& h : kTable) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

BestOf best_of(std::span<const Heuristic* const> candidates,
               const Instance& inst, Mem capacity, Executor& executor) {
  const CompiledInstance ci(inst);
  BestOf result;
  result.runs.resize(candidates.size());
  executor.for_each(candidates.size(), [&](std::size_t k) {
    const auto start = std::chrono::steady_clock::now();
    CandidateRun& run = result.runs[k];
    run.heuristic = candidates[k];
    run.schedule = candidates[k]->run(inst, ci, capacity);
    run.makespan = inst.empty() ? 0.0 : run.schedule.makespan(inst);
    run.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  });
  for (std::size_t k = 1; k < result.runs.size(); ++k) {
    if (result.runs[k].makespan < result.runs[result.best].makespan) {
      result.best = k;
    }
  }
  return result;
}

}  // namespace dts
