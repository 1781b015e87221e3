#pragma once

/// \file simulate.hpp
/// Earliest-start execution engine for problem DT and its multi-channel
/// generalization — the library's one implementation of the timing rules.
///
/// The engine models the machine's copy engines (one availability clock
/// per channel — the paper's system is the one-channel case), one
/// processing unit, and the bounded memory of the target node. Every
/// scheduler and scorer in the library drives ExecutionState::issue,
/// directly or through the compiled evaluator (compiled.hpp), so they all
/// share identical timing semantics:
///
///  * a transfer may start at time t only if the memory still held by
///    tasks whose transfer started and whose computation has not finished
///    (half-open intervals) leaves room for the new task; when it does
///    not, time advances to the next computation-finish event (the only
///    instants at which memory is released);
///  * a transfer starts at the earliest instant >= the current decision
///    instant at which its own channel is free; transfers on distinct
///    channels overlap, transfers sharing a channel serialize;
///  * SCOMP(i) = max(SCOMM(i) + CM_i, processor-free time) — computations
///    are served in the order they are issued to the engine.
///
/// With a single channel these rules reproduce the paper's worked
/// schedules (Figs. 4-6) exactly; see tests/paper_examples_test.cpp, the
/// parity suite in tests/channels_test.cpp and the golden records of
/// tests/fast_path_parity_test.cpp.

#include <algorithm>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "support/contract.hpp"

namespace dts {

/// Mutable execution state of the copy engines, the processor and the
/// memory node — the library's one implementation of the timing rules.
/// Decision instants only move forward. A fresh state starts at time 0
/// with every resource idle and no memory in use; batch schedulers reuse
/// one state across batches to model a runtime that keeps issuing work.
class ExecutionState {
 public:
  /// Value snapshot of the engine: per-channel availability plus the
  /// (comp-end, memory) pairs of in-flight tasks. Used by the window
  /// solver to explore candidate continuations and by the pair-order
  /// branch & bound to start mid-stream.
  struct Snapshot {
    /// One clock per channel; a default snapshot is a fresh single link.
    std::vector<Time> comm_available = {0.0};
    Time comp_available = 0.0;
    std::vector<std::pair<Time, Mem>> active;  ///< comp end, held memory
    /// Decision instant at capture. Restoring resumes from
    /// max(now, earliest channel clock): with one channel the last
    /// transfer's end always equals the decision instant, but with
    /// several channels an idle engine's clock can trail it — resuming
    /// from the trailing clock alone would issue transfers in the past,
    /// where memory this snapshot no longer tracks was still held
    /// (found by tests/differential_test.cpp).
    Time now = 0.0;
  };

  /// Capacity may be kInfiniteMem for the unconstrained (OMIM) case.
  /// `n_channels` is the number of copy engines (>= 1); tasks name their
  /// engine by channel id.
  explicit ExecutionState(Mem capacity, std::size_t n_channels = 1);

  /// Rebuilds an engine from a snapshot (same capacity semantics); the
  /// channel count is the snapshot's clock count.
  ExecutionState(Mem capacity, const Snapshot& snap);

  /// In-place forms of the two constructors: reuse this state's buffers,
  /// so a warm evaluation scratch restarts without allocating.
  void restore(Mem capacity, std::size_t n_channels);
  void restore(Mem capacity, const Snapshot& snap);

  /// The current decision instant (never decreases): the earliest instant
  /// at which a new transfer could still be issued.
  [[nodiscard]] Time now() const noexcept { return now_; }

  [[nodiscard]] std::size_t num_channels() const noexcept {
    return comm_avail_.size();
  }

  /// Instant at which channel `ch` is free for the next transfer.
  [[nodiscard]] Time comm_available(ChannelId ch) const {
    return comm_avail_.at(ch);
  }

  /// Instant at which *every* channel is free — for a single-channel state
  /// this is the link clock of the original model (the value batch
  /// schedulers carry across rounds and exact solvers tie-break on).
  [[nodiscard]] Time comm_available() const noexcept;

  [[nodiscard]] Time comp_available() const noexcept { return comp_avail_; }
  [[nodiscard]] Mem capacity() const noexcept { return capacity_; }

  /// Memory held at the current instant by tasks still owning their input.
  [[nodiscard]] Mem used_memory() const noexcept { return used_; }

  /// Number of tasks whose transfer started but whose computation has not
  /// finished at the current instant.
  [[nodiscard]] std::size_t active_tasks() const noexcept { return active_.size(); }

  /// Would a footprint of `mem` fit if its transfer started right now?
  [[nodiscard]] bool fits(Mem mem) const noexcept;

  /// Issues task `id` — transfer time `comm` on channel `ch`, computation
  /// `comp`, footprint `mem` — and returns its start times:
  ///  * admission: while the footprint does not fit, time advances to the
  ///    next computation-finish event (std::invalid_argument when nothing
  ///    is left to release);
  ///  * the transfer starts at max(now, channel clock, `ready`), where
  ///    `ready` is the latest predecessor computation end or an external
  ///    floor (0 for none); memory finishing in a waited gap is released;
  ///  * the computation starts at max(transfer end, processor-free);
  ///  * the decision instant then advances to the earliest free channel.
  /// Throws std::out_of_range for a channel this state does not have.
  /// Allocation-free once reserve() covers the issues to come.
  TaskTimes issue(TaskId id, Time comm, Time comp, Mem mem, ChannelId ch,
                  Time ready = 0.0);

  /// Advances the decision instant to the next computation-finish event,
  /// releasing its memory. Returns false (and leaves time unchanged) when
  /// no task is in flight.
  bool advance_to_next_release();

  /// Room for `tasks` more issues without reallocating the in-flight set.
  void reserve(std::size_t tasks) { active_.reserve(active_.size() + tasks); }

  [[nodiscard]] Snapshot snapshot() const;

  /// Bitwise equality of the whole engine, including the heap layout of
  /// the in-flight set (it drives release tie-breaks): two equal states
  /// evolve identically under the same issues.
  [[nodiscard]] bool operator==(const ExecutionState& o) const noexcept;

 private:
  struct ActiveTask {
    Time comp_end;
    Mem mem;
    /// Min-heap on comp_end.
    [[nodiscard]] bool operator>(const ActiveTask& o) const noexcept {
      return comp_end > o.comp_end;
    }
    [[nodiscard]] bool operator==(const ActiveTask&) const noexcept = default;
  };

  void release_until(Time t);

  Mem capacity_ = 0.0;
  Time now_ = 0.0;
  std::vector<Time> comm_avail_;  // one availability clock per channel
  Time comp_avail_ = 0.0;
  Mem used_ = 0.0;
  std::vector<ActiveTask> active_;  // binary min-heap via std::*_heap
};

namespace detail {

// Cold error funnels of the issue step: the hot path contains no string
// construction (enforced by the dts-lint hot-path-noalloc rule).
[[noreturn]] void throw_never_fits(TaskId id, Mem mem, Mem capacity);
[[noreturn]] void throw_unknown_channel(TaskId id, ChannelId ch,
                                        std::size_t nch);

}  // namespace detail

// The issue step is defined here so the compiled evaluator's loop
// (compiled.cpp) inlines it.

// dts-lint: hot-path
inline void ExecutionState::release_until(Time t) {
  while (!active_.empty() && approx_leq(active_.front().comp_end, t)) {
    used_ -= active_.front().mem;
    std::pop_heap(active_.begin(), active_.end(), std::greater<>{});
    active_.pop_back();
  }
  if (active_.empty()) used_ = 0.0;  // snap away accumulated rounding
}

// dts-lint: hot-path
[[gnu::always_inline]] inline TaskTimes ExecutionState::issue(
    TaskId id, Time comm, Time comp, Mem mem, ChannelId ch, Time ready) {
  // Admission: memory is only released at computation-finish events, so
  // wait for them until the footprint fits.
  while (!approx_leq(used_ + mem, capacity_)) {
    if (!advance_to_next_release()) {
      detail::throw_never_fits(id, mem, capacity_);
    }
  }
  const std::size_t nch = comm_avail_.size();
  if (ch >= nch) detail::throw_unknown_channel(id, ch, nch);
  Time* const clocks = comm_avail_.data();
  DTS_AUDIT_ONLY(const Time audit_now = now_;
                 const Time audit_channel = clocks[ch];
                 const Time audit_comp = comp_avail_;)
  // ready == 0 (no predecessors, no floor) leaves the precedence-free
  // timing bit-identical: max(x, 0.0) is x for every clock value.
  const Time comm_start = std::max(std::max(now_, clocks[ch]), ready);
  if (comm_start > now_) {
    // The task's engine is busy past the decision instant (only possible
    // with several channels), or a predecessor finishes later; memory
    // finishing in the gap is released (it only shrinks the footprint,
    // so the admission above still holds).
    now_ = comm_start;
    release_until(now_);
  }
  const Time comm_end = comm_start + comm;
  const Time comp_start = std::max(comm_end, comp_avail_);
  const Time comp_end = comp_start + comp;

  used_ += mem;
  active_.push_back(ActiveTask{comp_end, mem});
  std::push_heap(active_.begin(), active_.end(), std::greater<>{});

  clocks[ch] = comm_end;
  comp_avail_ = comp_end;

  // Decision instant: the earliest instant any channel is free again.
  Time min_clock = clocks[0];
  for (std::size_t c = 1; c < nch; ++c) {
    min_clock = std::min(min_clock, clocks[c]);
  }
  now_ = std::max(now_, min_clock);
  release_until(now_);
  // Clocks only move forward (per-channel monotonicity along the issue
  // order) and the admission wait keeps the footprint bounded.
  DTS_ENSURE(now_ >= audit_now, "decision instant must never decrease");
  DTS_ENSURE(clocks[ch] >= audit_channel,
             "channel clock must be monotone along the issue order");
  DTS_ENSURE(comp_avail_ >= audit_comp, "processor clock must be monotone");
  DTS_AUDIT(approx_leq(used_, capacity_), "memory bound exceeded mid-simulate");
  return TaskTimes{comm_start, comp_start};
}

inline bool ExecutionState::advance_to_next_release() {
  // Every entry with comp_end <= now_ was already released, so the heap
  // top (if any) is a strictly future event.
  if (active_.empty()) return false;
  now_ = std::max(now_, active_.front().comp_end);
  release_until(now_);
  return true;
}

// dts-lint: hot-path
inline bool ExecutionState::operator==(const ExecutionState& o) const noexcept {
  // comp_avail_ carries a local-search swap's perturbation the longest on
  // comp-bound workloads, so it is the most discriminating field — the
  // prefix-resume reconvergence probe compares it first.
  return comp_avail_ == o.comp_avail_ && now_ == o.now_ &&
         used_ == o.used_ && capacity_ == o.capacity_ &&
         comm_avail_ == o.comm_avail_ && active_ == o.active_;
}

/// Executes `order` (task ids of `inst`) as a permutation schedule on an
/// existing state, writing start times into `out`. Each transfer starts at
/// the earliest feasible instant on its task's channel — and, on a DAG
/// instance, no earlier than every predecessor's computation end, read
/// from `out` (so batch and window callers that share one Schedule across
/// rounds honor cross-round edges for free). Throws std::invalid_argument
/// when a task can never fit (mem > capacity) or when a predecessor of a
/// task has not been scheduled before it. `ready_floors` (optional,
/// indexed by task id) additionally floors each transfer start at an
/// externally known instant — the window solver passes completion times
/// of predecessors that live outside the sub-instance; empty means none.
void execute_order(const Instance& inst, std::span<const TaskId> order,
                   ExecutionState& state, Schedule& out,
                   std::span<const Time> ready_floors = {});

/// Convenience: run `order` on a fresh state with one clock per channel of
/// `inst`; returns the schedule.
[[nodiscard]] Schedule simulate_order(const Instance& inst,
                                      std::span<const TaskId> order,
                                      Mem capacity);

/// Convenience: the makespan of simulate_order.
[[nodiscard]] Time makespan_of_order(const Instance& inst,
                                     std::span<const TaskId> order,
                                     Mem capacity);

}  // namespace dts
