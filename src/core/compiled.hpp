#pragma once

/// \file compiled.hpp
/// Data-oriented evaluation: the allocation-free path every
/// candidate-scoring loop in the library runs on. It adds no timing rules
/// of its own — it drives ExecutionState::issue (simulate.hpp) over
/// structure-of-arrays task data:
///
///  * `CompiledInstance` — a structure-of-arrays compilation of an
///    `Instance`: contiguous `comm[]`, `comp[]`, `mem[]`, `channel[]`
///    arrays (no per-task `std::string` name pulling cold bytes through
///    the cache) plus the dependency edges in CSR form. Built once,
///    shared by every candidate evaluation.
///  * `EvalScratch` + `evaluate_order()` — the makespan of an order with
///    zero heap allocation per call after warm-up, no `Schedule`
///    construction and no string-building error paths in the loop. A
///    recording overload fills a `Schedule`; `simulate_order` and
///    `makespan_of_order` are built on these.
///  * `PrefixResumeEvaluator` — keeps a value copy of the engine after
///    every prefix of a reference order so that candidates sharing a
///    prefix (local-search adjacent swaps, `next_permutation` scans in
///    the exact searches) resimulate only the suffix.
///
/// Makespans, start times and final engine states are pinned bit-for-bit
/// by the golden records of tests/fast_path_parity_test.cpp across channel
/// counts, memory regimes and carried snapshots.

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/simulate.hpp"

namespace dts {

/// Structure-of-arrays view of an `Instance`, built once and shared by
/// all candidate evaluations. Tasks keep their ids (array index == id).
class CompiledInstance {
 public:
  CompiledInstance() = default;
  explicit CompiledInstance(const Instance& inst);

  [[nodiscard]] std::size_t size() const noexcept { return comm_.size(); }
  [[nodiscard]] bool empty() const noexcept { return comm_.empty(); }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return n_channels_;
  }
  /// Largest single-task footprint (the instance's mc).
  [[nodiscard]] Mem min_capacity() const noexcept { return min_capacity_; }

  [[nodiscard]] Time comm(TaskId id) const noexcept { return comm_[id]; }
  [[nodiscard]] Time comp(TaskId id) const noexcept { return comp_[id]; }
  [[nodiscard]] Mem mem(TaskId id) const noexcept { return mem_[id]; }
  [[nodiscard]] ChannelId channel(TaskId id) const noexcept {
    return channel_[id];
  }
  /// CP_i / CM_i with the same zero-communication convention as
  /// Task::acceleration (a free transfer is infinitely accelerated).
  [[nodiscard]] Time acceleration(TaskId id) const noexcept {
    if (comm_[id] <= 0.0) return kInfiniteTime;
    return comp_[id] / comm_[id];
  }

  [[nodiscard]] std::span<const Time> comms() const noexcept { return comm_; }
  [[nodiscard]] std::span<const Time> comps() const noexcept { return comp_; }
  [[nodiscard]] std::span<const Mem> mems() const noexcept { return mem_; }
  [[nodiscard]] std::span<const ChannelId> channels() const noexcept {
    return channel_;
  }

  /// True when the source instance carries dependency edges; every DAG
  /// branch of the hot loop is gated on this, so edge-free instances take
  /// exactly the original operation sequence.
  [[nodiscard]] bool has_dependencies() const noexcept {
    return has_dependencies_;
  }

  /// Predecessor ids of `id` (empty for precedence-free tasks) as a CSR
  /// view — the compiled mirror of Task::deps.
  [[nodiscard]] std::span<const TaskId> deps(TaskId id) const noexcept {
    return std::span<const TaskId>(dep_edges_)
        .subspan(dep_offsets_[id], dep_offsets_[id + 1] - dep_offsets_[id]);
  }

  /// Successor ids of `id` (the tasks listing it among their deps, by
  /// increasing id) — the reverse CSR the dynamic heuristics' readiness
  /// counts walk. Empty on edge-free instances.
  [[nodiscard]] std::span<const TaskId> successors(TaskId id) const noexcept {
    return std::span<const TaskId>(succ_edges_)
        .subspan(succ_offsets_[id],
                 succ_offsets_[id + 1] - succ_offsets_[id]);
  }

 private:
  std::vector<Time> comm_;
  std::vector<Time> comp_;
  std::vector<Mem> mem_;
  std::vector<ChannelId> channel_;
  /// Dependency edges, CSR over task ids: task `id` owns
  /// dep_edges_[dep_offsets_[id] .. dep_offsets_[id + 1]).
  std::vector<TaskId> dep_edges_;
  std::vector<std::size_t> dep_offsets_;
  /// Reverse edges, same layout: task `id` owns
  /// succ_edges_[succ_offsets_[id] .. succ_offsets_[id + 1]).
  std::vector<TaskId> succ_edges_;
  std::vector<std::size_t> succ_offsets_;
  std::size_t n_channels_ = 1;
  Mem min_capacity_ = 0.0;
  bool has_dependencies_ = false;
};

class PrefixResumeEvaluator;

/// Reusable engine for `evaluate_order`: an ExecutionState driven over the
/// SoA arrays of a CompiledInstance, plus the DAG bookkeeping the
/// compiled path keeps per task. All buffers persist across calls, so a
/// warm scratch evaluates orders with zero heap allocation.
class EvalScratch {
 public:
  EvalScratch() = default;

  /// Makespan of the last evaluation run on this scratch.
  [[nodiscard]] Time makespan() const noexcept { return makespan_; }
  /// Engine state after the last evaluation: clocks, memory, in-flight set.
  [[nodiscard]] const ExecutionState& state() const noexcept { return state_; }

 private:
  friend class PrefixResumeEvaluator;
  friend Time evaluate_order(const CompiledInstance& ci,
                             std::span<const TaskId> order, Mem capacity,
                             EvalScratch& scratch,
                             const ExecutionState::Snapshot* initial,
                             std::span<const Time> ready);
  friend Time evaluate_order(const CompiledInstance& ci,
                             std::span<const TaskId> order, Mem capacity,
                             EvalScratch& scratch, Schedule& out,
                             const ExecutionState::Snapshot* initial,
                             std::span<const Time> ready);

  /// Rebuilds the engine start state: fresh clocks, or a carried snapshot
  /// (ExecutionState's snapshot restore). `ready` (optional, per task id
  /// of `ci`) floors each transfer start at an externally known instant —
  /// the window solver passes predecessor completion times from earlier
  /// windows alongside the carried snapshot; empty means no floors.
  void reset(const CompiledInstance& ci, Mem capacity,
             const ExecutionState::Snapshot* initial,
             std::span<const Time> ready = {});
  /// Issues order[first..last) on the current state; the hot loop.
  /// `record` is null on the scoring path.
  void issue(const CompiledInstance& ci, std::span<const TaskId> order,
             std::size_t first, std::size_t last, Schedule* record);

  ExecutionState state_{0.0};
  /// End of the last computation issued (0 before any issue). Computation
  /// ends are monotone along the issue order, so this equals
  /// Schedule::makespan over the issued tasks.
  Time makespan_ = 0.0;
  /// DAG support, inert on edge-free instances: there each issued task
  /// records its computation end here (-1 = not issued) and a transfer
  /// waits for every predecessor's recorded end. external_ready_
  /// (possibly empty) carries cross-window floors per task id.
  std::vector<Time> comp_end_;
  std::vector<Time> external_ready_;
};

/// Makespan of `order` (ids into `ci`) — what
/// `simulate_order(inst, order, capacity).makespan(inst)` returns, but
/// without constructing a Schedule and without heap allocation once
/// `scratch` is warm. `initial` (optional) carries a previous engine state
/// exactly as `ExecutionState(capacity, *initial)` would. Unlike
/// simulate_order, the order may cover any subset of the instance (the
/// exact searches score window suffixes). Throws std::invalid_argument
/// when capacity is negative or a task can never fit, std::out_of_range
/// for an unknown task or channel.
/// `ready` (optional, indexed by task id) floors each transfer start at an
/// externally known instant — cross-window predecessor completion times.
/// On a DAG instance the engine additionally enforces the instance's own
/// edges: a transfer waits for every predecessor's computation end, and
/// issuing a task before its predecessor throws std::invalid_argument.
[[nodiscard]] Time evaluate_order(
    const CompiledInstance& ci, std::span<const TaskId> order, Mem capacity,
    EvalScratch& scratch, const ExecutionState::Snapshot* initial = nullptr,
    std::span<const Time> ready = {});

/// Recording overload: additionally writes each issued task's start times
/// into `out` (same values execute_order records).
Time evaluate_order(const CompiledInstance& ci, std::span<const TaskId> order,
                    Mem capacity, EvalScratch& scratch, Schedule& out,
                    const ExecutionState::Snapshot* initial = nullptr,
                    std::span<const Time> ready = {});

/// Candidate scorer that caches the engine state after every prefix of a
/// reference order, so evaluating a candidate resimulates only the part
/// after its longest common prefix with the reference:
///
///   PrefixResumeEvaluator eval(ci, capacity);
///   Time best = eval.set_reference(order);        // full simulation
///   Time ms = eval.evaluate(adjacent_swap);       // suffix only
///   best = eval.set_reference(improved_order);    // re-checkpoints the
///                                                 // changed suffix only
///
/// `set_reference` itself resumes from the previous reference's common
/// prefix, which makes `next_permutation` scans (exhaustive search,
/// branch-and-bound child expansions) nearly O(1) per permutation on
/// average. Results are bit-identical to from-scratch evaluation: a
/// checkpoint is a complete value copy of the engine (including the heap
/// layout of the active set), so the resumed suffix performs exactly the
/// operations a full rerun would.
class PrefixResumeEvaluator {
 public:
  PrefixResumeEvaluator(const CompiledInstance& ci, Mem capacity);
  /// Carried-state variant: every evaluation starts from `initial`
  /// exactly as ExecutionState(capacity, initial) would.
  PrefixResumeEvaluator(const CompiledInstance& ci, Mem capacity,
                        const ExecutionState::Snapshot& initial);

  /// Installs per-task external transfer-start floors (cross-window
  /// predecessor completion times; see evaluate_order). Resets the base
  /// state and drops the current reference — call before set_reference.
  void set_external_ready(std::span<const Time> ready);

  /// Full-accuracy makespan of `order`; records checkpoints so later
  /// calls resume after the common prefix. On failure (a task that can
  /// never fit) the reference is invalidated and the exception rethrown.
  Time set_reference(std::span<const TaskId> order);

  /// Makespan of `order`, resuming from the checkpoint at its longest
  /// common prefix with the current reference. When the candidate also
  /// shares a suffix with the reference (local-search swaps do), the
  /// engine additionally *reconverges*: after the divergent window it
  /// compares its state to the reference checkpoint at each position and
  /// returns the reference's final makespan the moment they bitwise
  /// match, since the remaining evolution is then identical. Does not
  /// move the reference — ideal for scoring a neighborhood around it.
  [[nodiscard]] Time evaluate(std::span<const TaskId> order);

  /// The order checkpoints are recorded for (empty until the first
  /// successful set_reference).
  [[nodiscard]] std::span<const TaskId> reference() const noexcept {
    return reference_;
  }

  /// State of the engine after the most recent set_reference/evaluate.
  [[nodiscard]] const ExecutionState& last_state() const noexcept {
    return scratch_.state();
  }

  /// Instrumentation: candidate evaluations served, tasks actually
  /// simulated, and tasks skipped by resuming from a checkpoint.
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] std::uint64_t tasks_simulated() const noexcept {
    return tasks_simulated_;
  }
  [[nodiscard]] std::uint64_t tasks_resumed() const noexcept {
    return tasks_resumed_;
  }

 private:
  /// Complete value copy of the engine after a prefix. Buffers are
  /// assigned in place on save/load, so steady-state checkpointing does
  /// not allocate.
  struct Checkpoint {
    ExecutionState state{0.0};
    Time makespan = 0.0;
    /// Per-task computation ends, saved only on DAG instances (successor
    /// transfers read them, so they are part of the engine state).
    std::vector<Time> comp_end;
  };

  void save_checkpoint(std::size_t k);
  void load_checkpoint(std::size_t k);
  [[nodiscard]] std::size_t common_prefix(
      std::span<const TaskId> order) const noexcept;
  /// True when the live engine state bitwise equals `cp` (including the
  /// heap layout of the active set) — the reconvergence test evaluate()
  /// uses to merge a candidate back onto the reference trajectory.
  [[nodiscard]] bool state_matches(const Checkpoint& cp) const noexcept;

  const CompiledInstance* ci_;
  Mem capacity_;
  bool has_initial_ = false;
  ExecutionState::Snapshot initial_;
  std::vector<Time> ready_;  ///< external transfer-start floors (may be empty)
  EvalScratch scratch_;
  std::vector<TaskId> reference_;
  std::vector<Checkpoint> checkpoints_;  // [k] = state after k tasks
  std::uint64_t evaluations_ = 0;
  std::uint64_t tasks_simulated_ = 0;
  std::uint64_t tasks_resumed_ = 0;
};

}  // namespace dts
