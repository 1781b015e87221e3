#include "core/simulate.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/compiled.hpp"

#include "support/contract.hpp"

namespace dts {

namespace detail {

[[noreturn]] void throw_never_fits(TaskId id, Mem mem, Mem capacity) {
  throw std::invalid_argument(
      "execute_order: task " + std::to_string(id) + " requires " +
      std::to_string(mem) + " bytes but capacity is " +
      std::to_string(capacity));
}

[[noreturn]] void throw_unknown_channel(TaskId id, ChannelId ch,
                                        std::size_t nch) {
  throw std::out_of_range("evaluate_order: task " + std::to_string(id) +
                          " names channel " + std::to_string(ch) +
                          " but the engine tracks " + std::to_string(nch));
}

}  // namespace detail

ExecutionState::ExecutionState(Mem capacity, std::size_t n_channels) {
  restore(capacity, n_channels);
}

ExecutionState::ExecutionState(Mem capacity, const Snapshot& snap) {
  restore(capacity, snap);
}

void ExecutionState::restore(Mem capacity, std::size_t n_channels) {
  if (!(capacity >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument("ExecutionState: capacity must be >= 0");
  }
  if (n_channels == 0) {
    throw std::invalid_argument("ExecutionState: need at least one channel");
  }
  capacity_ = capacity;
  now_ = 0.0;
  comm_avail_.assign(n_channels, 0.0);
  comp_avail_ = 0.0;
  used_ = 0.0;
  active_.clear();
}

void ExecutionState::restore(Mem capacity, const Snapshot& snap) {
  restore(capacity, snap.comm_available.size());
  for (Time avail : snap.comm_available) {
    if (avail < 0.0) {
      throw std::invalid_argument("ExecutionState: negative availability");
    }
  }
  if (snap.comp_available < 0.0 || snap.now < 0.0) {
    throw std::invalid_argument("ExecutionState: negative availability");
  }
  comm_avail_.assign(snap.comm_available.begin(), snap.comm_available.end());
  comp_avail_ = snap.comp_available;
  // The decision instant resumes at the earliest instant a new transfer
  // could be issued: the captured instant, or the first free channel if
  // that is later (hand-built snapshots leave `now` at 0 and carry only
  // clocks). Time never runs backwards — a decision instant earlier than
  // the capture would re-admit memory the snapshot no longer tracks.
  now_ = std::max(snap.now,
                  *std::min_element(comm_avail_.begin(), comm_avail_.end()));
  for (const auto& [comp_end, mem] : snap.active) {
    // Entries already finished relative to the snapshot's clock carry no
    // memory; keep the rest in flight.
    if (approx_leq(comp_end, now_)) continue;
    used_ += mem;
    active_.push_back(ActiveTask{comp_end, mem});
  }
  std::make_heap(active_.begin(), active_.end(), std::greater<>{});
}

Time ExecutionState::comm_available() const noexcept {
  return *std::max_element(comm_avail_.begin(), comm_avail_.end());
}

ExecutionState::Snapshot ExecutionState::snapshot() const {
  Snapshot snap;
  snap.comm_available = comm_avail_;
  snap.comp_available = comp_avail_;
  snap.now = now_;
  snap.active.reserve(active_.size());
  for (const ActiveTask& a : active_) snap.active.emplace_back(a.comp_end, a.mem);
  // Save -> restore must be the identity: the window solver and the
  // pair-order branch & bound resume engines from snapshots, and a lossy
  // capture silently corrupts time or memory accounting downstream (the
  // bug class tests/differential_test.cpp caught in PR 3: `now` was not
  // recorded, so multi-channel restores regressed the decision instant).
  DTS_AUDIT_ONLY({
    const ExecutionState restored(capacity_, snap);
    DTS_AUDIT(restored.now_ == now_,
              "snapshot restore must resume at the captured instant");
    DTS_AUDIT(restored.comm_avail_ == comm_avail_,
              "snapshot restore must keep every channel clock");
    DTS_AUDIT(restored.comp_avail_ == comp_avail_,
              "snapshot restore must keep the processor clock");
    DTS_AUDIT(restored.active_.size() == active_.size(),
              "snapshot restore must keep every in-flight task");
    DTS_AUDIT(approx_equal(restored.used_, used_),
              "snapshot restore must keep the memory footprint");
  });
  return snap;
}

bool ExecutionState::fits(Mem mem) const noexcept {
  return approx_leq(used_ + mem, capacity_);
}

void execute_order(const Instance& inst, std::span<const TaskId> order,
                   ExecutionState& state, Schedule& out,
                   std::span<const Time> ready_floors) {
  const bool dag = inst.has_dependencies();
  state.reserve(order.size());
  for (TaskId id : order) {
    const Task& t = inst[id];
    Time ready = ready_floors.empty() ? 0.0 : ready_floors[id];
    if (dag) {
      for (const TaskId dep : t.deps) {
        const TaskTimes& pred = out[dep];
        if (!pred.scheduled()) {
          throw std::invalid_argument(
              "execute_order: task " + std::to_string(id) +
              " issued before its predecessor " + std::to_string(dep));
        }
        ready = std::max(ready, pred.comp_start + inst[dep].comp);
      }
    }
    const TaskTimes tt =
        state.issue(id, t.comm, t.comp, t.mem, t.channel, ready);
    out.set(id, tt.comm_start, tt.comp_start);
  }
}

// Both conveniences run on the data-oriented fast path (core/compiled.hpp)
// — bit-identical timings to the ExecutionState reference loop above,
// pinned by tests/fast_path_parity_test.cpp — so one-shot callers benefit
// from the SoA layout too; repeated scorers should hold a CompiledInstance
// and an EvalScratch themselves.
Schedule simulate_order(const Instance& inst, std::span<const TaskId> order,
                        Mem capacity) {
  if (order.size() != inst.size()) {
    throw std::invalid_argument("simulate_order: order must cover all tasks");
  }
  const CompiledInstance ci(inst);
  EvalScratch scratch;
  Schedule sched(inst.size());
  evaluate_order(ci, order, capacity, scratch, sched);
  return sched;
}

Time makespan_of_order(const Instance& inst, std::span<const TaskId> order,
                       Mem capacity) {
  if (order.size() != inst.size()) {
    // Same message as simulate_order historically raised for short orders.
    throw std::invalid_argument("simulate_order: order must cover all tasks");
  }
  const CompiledInstance ci(inst);
  EvalScratch scratch;
  return evaluate_order(ci, order, capacity, scratch);
}

}  // namespace dts
