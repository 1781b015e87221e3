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
///
/// Complexity. pick_candidate is the rule's one definition: a linear scan
/// in pending order. The executors do not rescan the pending set at every
/// decision; they keep an incremental candidate index (detail::
/// CandidateScratch) and a schedule of n tasks costs O(n log n) plus the
/// rare fallbacks below, each linear in the tie closure it scans:
///
///  * per channel, the runnable tasks sit in a static order by (CM,
///    position) under a segment tree holding each subtree's minimum and
///    maximum footprint and its best criterion rank — (criterion, position)
///    sorted once per call;
///  * `fits` is monotone in the footprint and, without a predecessor
///    floor, the induced idle max(0, S_ch + CM - processor free) is
///    monotone in CM, so "smallest-CM fitting task", "end of the equal-idle
///    prefix" and "best-ranked fitting task in a range" are tree descents
///    and a binary search;
///  * on a DAG, remaining-predecessor counts track readiness, and a task
///    whose predecessor floor lies above its channel's start instant S_ch
///    waits in a small side set (scored directly) until S_ch passes it;
///  * issuing a task is a leaf update; the corrected heuristics' head is a
///    cursor into the base order.
///
/// Exactness. The scan's epsilon tie rule (definitely_less) is not
/// transitive. Let m be the minimum induced idle over the fitting
/// candidates and K its tie closure: the candidates linked to m by a
/// chain of epsilon ties, an idle interval [m, t] found by one descent per
/// channel and round. Every candidate above t is definitely worse than
/// all of K, so it never displaces a member of K in the scan and is
/// always displaced by one: the scan's winner is K's. When K is a clique
/// of mutual ties — !definitely_less(m, t), the common case being K = the
/// candidates whose idle is exactly m — the scan provably returns K's
/// criterion-best member, the earliest position on exact criterion ties,
/// which is a best-rank query over the tree. Only a chain longer than
/// epsilon falls back to pick_candidate, run over K alone in pending
/// order. Audit builds (-DDTS_AUDIT=ON) compare every indexed decision
/// against the scan over the whole fitting set, and
/// tests/candidate_index_test.cpp does the same on its corpora.

#include <cstdint>
#include <span>
#include <utility>
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

namespace detail {
class CandidateScratch;
}  // namespace detail

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
/// compile the instance once and reuse it, and own the candidate buffers
/// (`scratch`, reused across batches; tests switch on its oracle check
/// and read its counters).
void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, ExecutionState& state,
                     Schedule& out, detail::CandidateScratch& scratch);

namespace detail {

/// Decision counters of one CandidateScratch (cumulative across builds).
struct CandidateStats {
  std::uint64_t decisions = 0;   ///< select() calls that found a candidate
  std::uint64_t fallbacks = 0;   ///< decisions answered by the linear scan
  std::uint64_t mismatches = 0;  ///< oracle disagreements (must stay 0)
};

/// The incremental candidate index of one executor call (see the file
/// comment): every buffer the dynamic and corrected loops use, sized once
/// per build(). Tasks are addressed by their position in the indexed
/// order, which is also their tie-breaking priority.
class CandidateScratch {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Indexes `order` (ids into `ci`) for `criterion`. Readiness on a DAG
  /// instance reads the predecessors already scheduled in `out`.
  void build(const CompiledInstance& ci, std::span<const TaskId> order,
             DynamicCriterion criterion, const Schedule& out);

  /// True once every indexed task has been issued.
  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  /// Position of the first pending task in the indexed order (the
  /// corrected heuristics' head); requires !empty().
  [[nodiscard]] std::size_t head() noexcept;
  [[nodiscard]] TaskId task(std::size_t pos) const noexcept {
    return task_[pos];
  }
  /// Every predecessor of the task at `pos` is scheduled.
  [[nodiscard]] bool ready(std::size_t pos) const noexcept {
    return status_[pos] == kIndexed || status_[pos] == kFloored;
  }

  /// The position the scan would choose among the runnable pending tasks
  /// that fit at the engine's current instant; npos when none fits.
  [[nodiscard]] std::size_t select(const CompiledInstance& ci,
                                   const ExecutionState& state);

  /// Issues the task at `pos` (transfer floored at its predecessors'
  /// completion), records its start times in `out` and retires it from
  /// the index, releasing its successors.
  void issue(const CompiledInstance& ci, std::size_t pos,
             ExecutionState& state, Schedule& out);

  /// Cold error path of a stalled step: throws std::invalid_argument,
  /// prefixed with `who`, naming why no pending task can run.
  [[noreturn]] void throw_stalled(const char* who, const CompiledInstance& ci,
                                  const Schedule& out) const;
  /// Some pending task has all its predecessors scheduled.
  [[nodiscard]] bool any_ready() const noexcept { return ready_count_ > 0; }

  /// Check every select() against the linear scan (always on in audit
  /// builds), counting disagreements in stats().mismatches.
  void set_oracle(bool on) noexcept { oracle_ = on; }
  [[nodiscard]] const CandidateStats& stats() const noexcept { return stats_; }

 private:
  enum Status : std::uint8_t { kBlocked, kFloored, kIndexed, kIssued };
  static constexpr std::uint32_t kNoRank = UINT32_MAX;

  /// Per-channel segment tree over the (CM, position) order: nodes
  /// [base, base + 2 * width), root at base + 1, leaf i at base + width + i.
  struct Channel {
    std::size_t base = 0;
    std::size_t width = 1;   ///< power of two >= leaf count
    std::size_t first = 0;   ///< offset of the channel's leaves in leaf_comm_
    std::size_t leaves = 0;
    // Per decision: S_ch = max(now, channel clock), the smallest-CM
    // fitting leaf (npos: none) and the end of the tie-closure prefix.
    Time start = 0.0;
    std::size_t first_fit = 0;
    std::size_t hi = 0;
  };

  void pull(std::size_t base, std::size_t k) noexcept;
  void set_leaf(const CompiledInstance& ci, std::size_t pos,
                bool live) noexcept;
  void promote_floored(const CompiledInstance& ci,
                       const ExecutionState& state);
  [[nodiscard]] std::size_t first_fitting(const Channel& ch, std::size_t k,
                                          std::size_t node_lo,
                                          std::size_t node_hi,
                                          std::size_t from,
                                          const ExecutionState& state) const;
  void best_fitting(const Channel& ch, std::size_t k, std::size_t lo,
                    std::size_t hi, std::size_t node_lo, std::size_t node_hi,
                    const ExecutionState& state, std::uint32_t& best) const;
  [[nodiscard]] std::size_t choose(const CompiledInstance& ci,
                                   const ExecutionState& state);
  /// Appends the positions of the live fitting leaves of [0, hi).
  void collect_fitting(const Channel& ch, std::size_t k, std::size_t node_lo,
                       std::size_t node_hi, std::size_t hi,
                       const ExecutionState& state);
  /// The fallback: pick_candidate over the tie closure [m, t] in pending
  /// order.
  [[nodiscard]] std::size_t scan_closure(const CompiledInstance& ci,
                                         const ExecutionState& state, Time t);
  /// The oracle: pick_candidate over every runnable fitting task in
  /// pending order (the scan the index replaces).
  [[nodiscard]] std::size_t scan(const CompiledInstance& ci,
                                 const ExecutionState& state);
  /// pick_candidate over fitting_pos_ (ascending positions).
  [[nodiscard]] std::size_t pick_in_order(const CompiledInstance& ci,
                                          const ExecutionState& state);

  bool dag_ = false;
  bool oracle_ = false;
  DynamicCriterion criterion_ = DynamicCriterion::kLargestComm;
  std::size_t pending_ = 0;
  std::size_t ready_count_ = 0;
  std::size_t head_ = 0;
  CandidateStats stats_;

  /// A sort key and the position it belongs to.
  struct Keyed {
    Time key;
    std::uint32_t pos;
  };
  std::vector<Keyed> keyed_;  ///< by (CM, position)
  std::vector<Keyed> accel_;  ///< by (-CP/CM, position), MAMR only

  // Per position in the indexed order.
  std::vector<TaskId> task_;
  std::vector<Status> status_;
  std::vector<std::uint32_t> rank_;       ///< (criterion, position) rank
  std::vector<std::uint32_t> leaf_;       ///< leaf index in its channel
  std::vector<std::uint32_t> remaining_;  ///< unscheduled predecessors
  std::vector<Time> floor_;               ///< predecessor completion floor
  std::vector<std::uint32_t> by_rank_;    ///< rank -> position
  /// (task id, position), sorted: successor lookup on DAG instances.
  std::vector<std::pair<TaskId, std::uint32_t>> by_task_;
  std::vector<std::uint32_t> floored_;    ///< positions waiting on a floor
  std::vector<Time> floored_idle_;        ///< per decision; < 0: no fit

  // Per channel and per tree node.
  std::vector<Channel> channels_;
  std::vector<Time> leaf_comm_;           ///< static keys, per channel run
  std::vector<std::uint32_t> leaf_pos_;   ///< leaf slot -> position
  std::vector<Mem> min_mem_;
  std::vector<Mem> max_mem_;
  std::vector<std::uint32_t> min_rank_;

  // Linear-scan buffers (fallback and oracle): positions, ids, floors.
  std::vector<TaskId> fitting_;
  std::vector<Time> floors_;
  std::vector<std::uint32_t> fitting_pos_;
};

/// One dynamic decision (the executor shared by the dynamic and corrected
/// heuristics): issues the runnable fitting task pick_candidate prefers,
/// or — when nothing runnable fits — advances the engine to the next
/// memory release. Throws std::invalid_argument, prefixed with `who`,
/// when no pending task can ever run.
void dynamic_step(const char* who, const CompiledInstance& ci,
                  ExecutionState& state, Schedule& out,
                  CandidateScratch& scratch);

}  // namespace detail

}  // namespace dts
