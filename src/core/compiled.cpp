#include "core/compiled.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dts {

namespace {

// Error paths live in cold [[noreturn]] helpers so the hot loops contain
// no string construction (enforced by the dts-lint hot-path-noalloc rule).

[[noreturn]] void throw_unknown_task(TaskId id, std::size_t n) {
  throw std::out_of_range("evaluate_order: task id " + std::to_string(id) +
                          " out of range (instance has " + std::to_string(n) +
                          " tasks)");
}

[[noreturn]] void throw_unissued_pred(TaskId id, TaskId dep) {
  // Same message shape as execute_order's dependency check.
  throw std::invalid_argument("execute_order: task " + std::to_string(id) +
                              " issued before its predecessor " +
                              std::to_string(dep));
}

}  // namespace

// ----------------------------------------------------------------------
// CompiledInstance

CompiledInstance::CompiledInstance(const Instance& inst)
    : n_channels_(inst.num_channels()),
      min_capacity_(inst.min_capacity()),
      has_dependencies_(inst.has_dependencies()) {
  const std::size_t n = inst.size();
  comm_.reserve(n);
  comp_.reserve(n);
  mem_.reserve(n);
  channel_.reserve(n);
  for (const Task& t : inst) {
    comm_.push_back(t.comm);
    comp_.push_back(t.comp);
    mem_.push_back(t.mem);
    channel_.push_back(t.channel);
  }
  dep_offsets_.assign(n + 1, 0);
  succ_offsets_.assign(n + 1, 0);
  if (has_dependencies_) {
    for (std::size_t id = 0; id < n; ++id) {
      dep_offsets_[id + 1] = dep_offsets_[id] + inst[id].deps.size();
    }
    dep_edges_.reserve(dep_offsets_[n]);
    for (const Task& t : inst) {
      dep_edges_.insert(dep_edges_.end(), t.deps.begin(), t.deps.end());
    }
    for (const TaskId dep : dep_edges_) ++succ_offsets_[dep + 1];
    for (std::size_t id = 0; id < n; ++id) {
      succ_offsets_[id + 1] += succ_offsets_[id];
    }
    succ_edges_.resize(dep_edges_.size());
    std::vector<std::size_t> fill(succ_offsets_.begin(),
                                  succ_offsets_.end() - 1);
    for (std::size_t id = 0; id < n; ++id) {
      for (const TaskId dep : deps(static_cast<TaskId>(id))) {
        succ_edges_[fill[dep]++] = static_cast<TaskId>(id);
      }
    }
  }
}

// ----------------------------------------------------------------------
// EvalScratch

void EvalScratch::reset(const CompiledInstance& ci, Mem capacity,
                        const ExecutionState::Snapshot* initial,
                        std::span<const Time> ready) {
  if (initial == nullptr) {
    state_.restore(capacity, ci.num_channels());
  } else {
    state_.restore(capacity, *initial);
  }
  // After warm-up this is a no-op: issuing adds at most one in-flight
  // entry per task, so the hot loop never reallocates.
  state_.reserve(ci.size());
  makespan_ = 0.0;
  if (ci.has_dependencies()) {
    comp_end_.assign(ci.size(), -1.0);  // -1 = not issued yet
  }
  external_ready_.assign(ready.begin(), ready.end());
}

// The inner kernel: ExecutionState::issue over the SoA arrays, plus the
// predecessor floors the compiled path tracks per task id.
// dts-lint: hot-path
void EvalScratch::issue(const CompiledInstance& ci,
                        std::span<const TaskId> order, std::size_t first,
                        std::size_t last, Schedule* record) {
  const Time* const comm = ci.comms().data();
  const Time* const comp = ci.comps().data();
  const Mem* const mem = ci.mems().data();
  const ChannelId* const channel = ci.channels().data();
  const std::size_t n_tasks = ci.size();
  // DAG support is fully gated: edge-free instances with no external
  // floors pass ready == 0, the precedence-free operation sequence.
  const Time* const floors =
      external_ready_.empty() ? nullptr : external_ready_.data();
  Time* const ends = ci.has_dependencies() ? comp_end_.data() : nullptr;

  for (std::size_t k = first; k < last; ++k) {
    const TaskId id = order[k];
    if (id >= n_tasks) throw_unknown_task(id, n_tasks);
    Time ready = floors != nullptr ? floors[id] : 0.0;
    if (ends != nullptr) {
      // Release-when-predecessors-complete: the transfer waits for every
      // predecessor's computation end.
      for (const TaskId dep : ci.deps(id)) {
        const Time pred_end = ends[dep];
        if (pred_end < 0.0) throw_unissued_pred(id, dep);
        ready = std::max(ready, pred_end);
      }
    }
    const TaskTimes tt =
        state_.issue(id, comm[id], comp[id], mem[id], channel[id], ready);
    // Computation ends are monotone along the issue order, so the last
    // one is the running makespan.
    makespan_ = state_.comp_available();
    if (ends != nullptr) ends[id] = makespan_;
    if (record != nullptr) record->set(id, tt.comm_start, tt.comp_start);
  }
}

Time evaluate_order(const CompiledInstance& ci, std::span<const TaskId> order,
                    Mem capacity, EvalScratch& scratch,
                    const ExecutionState::Snapshot* initial,
                    std::span<const Time> ready) {
  scratch.reset(ci, capacity, initial, ready);
  scratch.issue(ci, order, 0, order.size(), nullptr);
  return scratch.makespan();
}

Time evaluate_order(const CompiledInstance& ci, std::span<const TaskId> order,
                    Mem capacity, EvalScratch& scratch, Schedule& out,
                    const ExecutionState::Snapshot* initial,
                    std::span<const Time> ready) {
  scratch.reset(ci, capacity, initial, ready);
  scratch.issue(ci, order, 0, order.size(), &out);
  return scratch.makespan();
}

// ----------------------------------------------------------------------
// PrefixResumeEvaluator

PrefixResumeEvaluator::PrefixResumeEvaluator(const CompiledInstance& ci,
                                             Mem capacity)
    : ci_(&ci), capacity_(capacity) {
  scratch_.reset(ci, capacity, nullptr);
  checkpoints_.resize(1);
  save_checkpoint(0);
}

PrefixResumeEvaluator::PrefixResumeEvaluator(
    const CompiledInstance& ci, Mem capacity,
    const ExecutionState::Snapshot& initial)
    : ci_(&ci), capacity_(capacity), has_initial_(true), initial_(initial) {
  scratch_.reset(ci, capacity, &initial_);
  checkpoints_.resize(1);
  save_checkpoint(0);
}

void PrefixResumeEvaluator::set_external_ready(std::span<const Time> ready) {
  ready_.assign(ready.begin(), ready.end());
  scratch_.reset(*ci_, capacity_, has_initial_ ? &initial_ : nullptr, ready_);
  reference_.clear();  // checkpoints past 0 are stale under the new floors
  save_checkpoint(0);
}

void PrefixResumeEvaluator::save_checkpoint(std::size_t k) {
  Checkpoint& cp = checkpoints_[k];
  cp.state = scratch_.state_;
  cp.makespan = scratch_.makespan_;
  // Successor transfers read issued tasks' computation ends, so on a DAG
  // the per-task ends are part of the engine state.
  if (ci_->has_dependencies()) cp.comp_end = scratch_.comp_end_;
}

// dts-lint: hot-path
void PrefixResumeEvaluator::load_checkpoint(std::size_t k) {
  const Checkpoint& cp = checkpoints_[k];
  scratch_.state_ = cp.state;
  scratch_.makespan_ = cp.makespan;
  if (ci_->has_dependencies()) scratch_.comp_end_ = cp.comp_end;
}

std::size_t PrefixResumeEvaluator::common_prefix(
    std::span<const TaskId> order) const noexcept {
  const std::size_t limit = std::min(order.size(), reference_.size());
  std::size_t k = 0;
  while (k < limit && order[k] == reference_[k]) ++k;
  return k;
}

Time PrefixResumeEvaluator::set_reference(std::span<const TaskId> order) {
  const std::size_t keep = common_prefix(order);
  load_checkpoint(keep);
  if (checkpoints_.size() < order.size() + 1) {
    checkpoints_.resize(order.size() + 1);
  }
  reference_.assign(order.begin(), order.end());
  try {
    for (std::size_t k = keep; k < order.size(); ++k) {
      scratch_.issue(*ci_, order, k, k + 1, nullptr);
      save_checkpoint(k + 1);
    }
  } catch (...) {
    // Checkpoints past `keep` are stale; dropping the reference forces
    // the next call to rebuild from the base state.
    reference_.clear();
    throw;
  }
  ++evaluations_;
  tasks_simulated_ += order.size() - keep;
  tasks_resumed_ += keep;
  return scratch_.makespan_;
}

// dts-lint: hot-path
bool PrefixResumeEvaluator::state_matches(const Checkpoint& cp) const noexcept {
  // On a DAG, suffix tasks read predecessors' recorded ends — states only
  // merge when those agree too (the candidate has issued the same task
  // set as the reference prefix, so a plain array compare works:
  // unissued entries are -1 on both sides).
  return scratch_.state_ == cp.state && scratch_.makespan_ == cp.makespan &&
         (!ci_->has_dependencies() || scratch_.comp_end_ == cp.comp_end);
}

// dts-lint: hot-path
Time PrefixResumeEvaluator::evaluate(std::span<const TaskId> order) {
  ++evaluations_;
  const std::size_t keep = common_prefix(order);
  load_checkpoint(keep);

  // Longest common suffix with the reference, disjoint from the kept
  // prefix. Past `merge_from` the candidate issues exactly the
  // reference's remaining tasks, so the engine evolutions can MERGE: the
  // instant the whole engine state bitwise re-equals the reference
  // checkpoint at the same position, every later operation is identical
  // and the reference's final makespan is the candidate's (computation
  // ends are monotone along the issue order, so the final comp_end — a
  // pure function of the merged state and the shared suffix — is the
  // makespan). A local-search swap then costs the divergent window plus
  // a few merge probes instead of the whole suffix.
  std::size_t tail = 0;
  if (order.size() == reference_.size()) {
    const std::size_t room = order.size() - keep;
    while (tail < room && order[order.size() - 1 - tail] ==
                              reference_[order.size() - 1 - tail]) {
      ++tail;
    }
  }
  const std::size_t merge_from = order.size() - tail;

  scratch_.issue(*ci_, order, keep, merge_from, nullptr);
  // Once the states match at some position they match at every later one
  // (identical state + identical next task → identical next state), so a
  // strided probe still catches the merge — it just overshoots by at most
  // kProbeStride - 1 simulated tasks while paying the per-issue overhead
  // kProbeStride times less often.
  constexpr std::size_t kProbeStride = 4;
  for (std::size_t k = merge_from; k < order.size();) {
    if (state_matches(checkpoints_[k])) {
      tasks_simulated_ += k - keep;
      tasks_resumed_ += keep + (order.size() - k);
      return checkpoints_[reference_.size()].makespan;
    }
    const std::size_t next = std::min(k + kProbeStride, order.size());
    scratch_.issue(*ci_, order, k, next, nullptr);
    k = next;
  }
  tasks_simulated_ += order.size() - keep;
  tasks_resumed_ += keep;
  return scratch_.makespan_;
}

}  // namespace dts
