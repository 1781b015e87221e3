#include "heuristics/dynamic.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/contract.hpp"

namespace dts {

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

/// The latest computation end among `id`'s predecessors, all of which
/// are scheduled in `out` (0 for none): its transfer floor on a DAG.
Time predecessor_floor(const CompiledInstance& ci, const Schedule& out,
                       TaskId id) {
  Time ready = 0.0;
  for (const TaskId dep : ci.deps(id)) {
    ready = std::max(ready, out[dep].comp_start + ci.comp(dep));
  }
  return ready;
}

/// Induced processor idle of a transfer of length `comm` starting at
/// `start`: the one expression the scan and the index both evaluate, so
/// their scores are bitwise equal.
inline Time induced_idle(Time start, Time comm, Time comp_avail) {
  return std::max(0.0, start + comm - comp_avail);
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
    const Time idle = induced_idle(start, ci.comm(id), comp_avail);
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

// ----------------------------------------------------------------------
// CandidateScratch

void CandidateScratch::build(const CompiledInstance& ci,
                             std::span<const TaskId> order,
                             DynamicCriterion criterion, const Schedule& out) {
  const std::size_t n = order.size();
  dag_ = ci.has_dependencies();
  oracle_ = oracle_ || kAuditsEnabled;
  pending_ = n;
  ready_count_ = 0;
  head_ = 0;
  criterion_ = criterion;
  task_.assign(order.begin(), order.end());

  // One keyed sort by (CM, position) gives every channel's leaf order and,
  // for the CM criteria, the rank: the scan's preference among equally
  // idle candidates — criterion first, earlier position on ties.
  const auto by_key_then_position = [](const Keyed& a, const Keyed& b) {
    return a.key < b.key || (a.key == b.key && a.pos < b.pos);
  };
  keyed_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    keyed_[pos] = Keyed{ci.comm(task_[pos]), static_cast<std::uint32_t>(pos)};
  }
  std::sort(keyed_.begin(), keyed_.end(), by_key_then_position);
  by_rank_.resize(n);
  switch (criterion) {
    case DynamicCriterion::kSmallestComm:
      for (std::size_t r = 0; r < n; ++r) by_rank_[r] = keyed_[r].pos;
      break;
    case DynamicCriterion::kLargestComm: {
      // CM descending: the groups of equal CM in reverse, each group
      // still by position.
      std::size_t r = 0;
      for (std::size_t hi = n; hi > 0;) {
        std::size_t lo = hi - 1;
        while (lo > 0 && keyed_[lo - 1].key == keyed_[hi - 1].key) --lo;
        for (std::size_t k = lo; k < hi; ++k) by_rank_[r++] = keyed_[k].pos;
        hi = lo;
      }
      break;
    }
    case DynamicCriterion::kMaxAcceleration: {
      // CP/CM descending; negated keys reuse the ascending comparator
      // (-inf for a free transfer sorts first, as +inf is best).
      accel_.resize(n);
      for (std::size_t pos = 0; pos < n; ++pos) {
        accel_[pos] = Keyed{-ci.acceleration(task_[pos]),
                            static_cast<std::uint32_t>(pos)};
      }
      std::sort(accel_.begin(), accel_.end(), by_key_then_position);
      for (std::size_t r = 0; r < n; ++r) by_rank_[r] = accel_[r].pos;
      break;
    }
  }
  rank_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    rank_[by_rank_[r]] = static_cast<std::uint32_t>(r);
  }

  // Leaves: per channel, by (CM, position) — the order in which induced
  // idle is monotone. A stable bucket pass over the keyed order.
  channels_.assign(std::max<std::size_t>(ci.num_channels(), 1), Channel{});
  for (const TaskId id : task_) ++channels_[ci.channel(id)].leaves;
  std::size_t first = 0;
  std::size_t base = 0;
  for (Channel& ch : channels_) {
    ch.first = first;
    ch.width = std::bit_ceil(std::max<std::size_t>(ch.leaves, 1));
    ch.base = base;
    first += ch.leaves;
    base += 2 * ch.width;
    ch.leaves = 0;  // refilled below
  }
  leaf_.resize(n);
  leaf_comm_.resize(n);
  leaf_pos_.resize(n);
  for (const Keyed& k : keyed_) {
    Channel& ch = channels_[ci.channel(task_[k.pos])];
    leaf_[k.pos] = static_cast<std::uint32_t>(ch.leaves);
    leaf_comm_[ch.first + ch.leaves] = k.key;
    leaf_pos_[ch.first + ch.leaves] = k.pos;
    ++ch.leaves;
  }
  min_mem_.assign(base, std::numeric_limits<Mem>::infinity());
  max_mem_.assign(base, -std::numeric_limits<Mem>::infinity());
  min_rank_.assign(base, kNoRank);

  // Readiness: on a DAG a task waits for its unscheduled predecessors;
  // one whose predecessors are all done but finish after time 0 starts in
  // the floored side set (select() promotes it once its channel's start
  // instant passes the floor).
  status_.assign(n, kIndexed);
  floored_.clear();
  if (dag_) {
    remaining_.assign(n, 0);
    floor_.assign(n, 0.0);
    by_task_.resize(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      by_task_[pos] = {task_[pos], static_cast<std::uint32_t>(pos)};
      std::uint32_t waiting = 0;
      for (const TaskId dep : ci.deps(task_[pos])) {
        if (!out[dep].scheduled()) ++waiting;
      }
      remaining_[pos] = waiting;
      if (waiting > 0) {
        status_[pos] = kBlocked;
        continue;
      }
      floor_[pos] = predecessor_floor(ci, out, task_[pos]);
      if (floor_[pos] > 0.0) {
        status_[pos] = kFloored;
        floored_.push_back(static_cast<std::uint32_t>(pos));
      }
    }
    std::sort(by_task_.begin(), by_task_.end());
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (status_[pos] == kBlocked) continue;
    ++ready_count_;
    if (status_[pos] != kIndexed) continue;
    const Channel& ch = channels_[ci.channel(task_[pos])];
    const std::size_t node = ch.base + ch.width + leaf_[pos];
    min_mem_[node] = max_mem_[node] = ci.mem(task_[pos]);
    min_rank_[node] = rank_[pos];
  }
  for (const Channel& ch : channels_) {
    for (std::size_t k = ch.width - 1; k >= 1; --k) pull(ch.base, k);
  }

  fitting_.reserve(n);
  floors_.reserve(n);
  fitting_pos_.reserve(n);
  floored_idle_.reserve(n);
}

std::size_t CandidateScratch::head() noexcept {
  while (status_[head_] == kIssued) ++head_;
  return head_;
}

// dts-lint: hot-path
void CandidateScratch::pull(std::size_t base, std::size_t k) noexcept {
  const std::size_t l = base + 2 * k;
  const std::size_t r = l + 1;
  min_mem_[base + k] = std::min(min_mem_[l], min_mem_[r]);
  max_mem_[base + k] = std::max(max_mem_[l], max_mem_[r]);
  min_rank_[base + k] = std::min(min_rank_[l], min_rank_[r]);
}

// dts-lint: hot-path
void CandidateScratch::set_leaf(const CompiledInstance& ci, std::size_t pos,
                                bool live) noexcept {
  const TaskId id = task_[pos];
  const Channel& ch = channels_[ci.channel(id)];
  std::size_t k = ch.width + leaf_[pos];
  constexpr Mem kNone = std::numeric_limits<Mem>::infinity();
  min_mem_[ch.base + k] = live ? ci.mem(id) : kNone;
  max_mem_[ch.base + k] = live ? ci.mem(id) : -kNone;
  min_rank_[ch.base + k] = live ? rank_[pos] : kNoRank;
  for (k >>= 1; k >= 1; k >>= 1) pull(ch.base, k);
}

// dts-lint: hot-path
void CandidateScratch::promote_floored(const CompiledInstance& ci,
                                       const ExecutionState& state) {
  // A floor at or below S_ch = max(now, channel clock) no longer changes
  // the transfer start (max(S_ch, floor) == S_ch), and S_ch never
  // decreases: the task joins its channel's tree for good.
  for (std::size_t i = 0; i < floored_.size();) {
    const std::uint32_t pos = floored_[i];
    const Time start = std::max(
        state.now(), state.comm_available(ci.channel(task_[pos])));
    if (floor_[pos] <= start) {
      status_[pos] = kIndexed;
      set_leaf(ci, pos, true);
      floored_[i] = floored_.back();
      floored_.pop_back();
    } else {
      ++i;
    }
  }
}

// dts-lint: hot-path
std::size_t CandidateScratch::first_fitting(const Channel& ch, std::size_t k,
                                            std::size_t node_lo,
                                            std::size_t node_hi,
                                            std::size_t from,
                                            const ExecutionState& state) const {
  // Leftmost live leaf at or after `from` whose footprint fits. `fits` is
  // monotone in the footprint, so a subtree holds one iff its minimum
  // fits, and a fully covered subtree that passes never backtracks.
  const std::size_t node = ch.base + k;
  if (node_hi <= from || min_rank_[node] == kNoRank ||
      !state.fits(min_mem_[node])) {
    return npos;
  }
  if (k >= ch.width) return node_lo;
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  const std::size_t left = first_fitting(ch, 2 * k, node_lo, mid, from, state);
  if (left != npos) return left;
  return first_fitting(ch, 2 * k + 1, mid, node_hi, from, state);
}

// dts-lint: hot-path
void CandidateScratch::best_fitting(const Channel& ch, std::size_t k,
                                    std::size_t lo, std::size_t hi,
                                    std::size_t node_lo, std::size_t node_hi,
                                    const ExecutionState& state,
                                    std::uint32_t& best) const {
  // Lowest rank among the live fitting leaves of [lo, hi): branch and
  // bound on the subtree's best rank, answered in O(1) by a covered
  // subtree whose every live footprint fits.
  const std::size_t node = ch.base + k;
  if (node_hi <= lo || node_lo >= hi || min_rank_[node] >= best ||
      !state.fits(min_mem_[node])) {
    return;
  }
  if (lo <= node_lo && node_hi <= hi && state.fits(max_mem_[node])) {
    best = min_rank_[node];
    return;
  }
  // A leaf is settled above: its footprint either fits or not.
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  const std::size_t l = ch.base + 2 * k;
  if (min_rank_[l] <= min_rank_[l + 1]) {
    best_fitting(ch, 2 * k, lo, hi, node_lo, mid, state, best);
    best_fitting(ch, 2 * k + 1, lo, hi, mid, node_hi, state, best);
  } else {
    best_fitting(ch, 2 * k + 1, lo, hi, mid, node_hi, state, best);
    best_fitting(ch, 2 * k, lo, hi, node_lo, mid, state, best);
  }
}

// dts-lint: hot-path
std::size_t CandidateScratch::choose(const CompiledInstance& ci,
                                     const ExecutionState& state) {
  promote_floored(ci, state);
  const Time now = state.now();
  const Time comp_avail = state.comp_available();

  // m: the minimum induced idle over the fitting candidates. In a tree it
  // is the smallest-CM fitting leaf's; a floored task is scored directly
  // (a negative idle marks one that does not fit).
  bool found = false;
  Time m = kInfiniteTime;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    Channel& ch = channels_[c];
    ch.first_fit = npos;
    const std::size_t root = ch.base + 1;
    if (min_rank_[root] == kNoRank || !state.fits(min_mem_[root])) continue;
    ch.start = std::max(now, state.comm_available(static_cast<ChannelId>(c)));
    ch.first_fit = first_fitting(ch, 1, 0, ch.width, 0, state);
    const Time idle =
        induced_idle(ch.start, leaf_comm_[ch.first + ch.first_fit], comp_avail);
    m = found ? std::min(m, idle) : idle;
    found = true;
  }
  floored_idle_.clear();
  for (const std::uint32_t pos : floored_) {
    const TaskId id = task_[pos];
    if (!state.fits(ci.mem(id))) {
      floored_idle_.push_back(-1.0);
      continue;
    }
    const Time start =
        std::max(std::max(now, state.comm_available(ci.channel(id))),
                 floor_[pos]);
    const Time idle = induced_idle(start, ci.comm(id), comp_avail);
    floored_idle_.push_back(idle);
    m = found ? std::min(m, idle) : idle;
    found = true;
  }
  if (!found) return npos;
  ++stats_.decisions;

  // K: the tie closure of m — the fitting candidates linked to m by a
  // chain of epsilon ties (definitely_less false both ways). By idle it
  // is an interval [m, t], and every candidate above t is definitely
  // worse than all of K: it never displaces a member of K in the scan and
  // is always displaced by one, so the scan's winner is K's. Per channel
  // K is the fitting leaves of the prefix [0, hi) where idle(CM) <= t.
  Time t = m;
  for (;;) {
    bool beyond = false;
    Time next = kInfiniteTime;
    for (Channel& ch : channels_) {
      if (ch.first_fit == npos) continue;
      const Time* keys = leaf_comm_.data() + ch.first;
      const Time start = ch.start;
      const auto within_t = [&](Time comm) {
        return induced_idle(start, comm, comp_avail) <= t;
      };
      ch.hi = static_cast<std::size_t>(
          std::partition_point(keys, keys + ch.leaves, within_t) - keys);
      // Idle is monotone in CM: the first fitting leaf past the prefix
      // carries the channel's smallest idle above t.
      const std::size_t f = first_fitting(ch, 1, 0, ch.width, ch.hi, state);
      if (f != npos) {
        next = std::min(next, induced_idle(start, keys[f], comp_avail));
        beyond = true;
      }
    }
    for (const Time idle : floored_idle_) {
      if (idle > t) {
        next = std::min(next, idle);
        beyond = true;
      }
    }
    if (!beyond || definitely_less(t, next)) break;
    t = next;
  }

  if (definitely_less(m, t)) {
    // A tie chain longer than epsilon: the scan's order-dependent rule
    // decides, run over K alone in pending order.
    ++stats_.fallbacks;
    return scan_closure(ci, state, t);
  }
  // K is a clique of mutual ties (definitely_less is monotone in both
  // arguments, so its extreme pair bounds every pair): the scan keeps
  // the first member and replaces it only for a strictly better
  // criterion — K's best rank, the earliest position on equal criteria.
  std::uint32_t best = kNoRank;
  for (const Channel& ch : channels_) {
    if (ch.first_fit != npos) {
      best_fitting(ch, 1, 0, ch.hi, 0, ch.width, state, best);
    }
  }
  for (std::size_t i = 0; i < floored_.size(); ++i) {
    if (floored_idle_[i] >= 0.0 && floored_idle_[i] <= t) {
      best = std::min(best, rank_[floored_[i]]);
    }
  }
  return by_rank_[best];
}

void CandidateScratch::collect_fitting(const Channel& ch, std::size_t k,
                                       std::size_t node_lo,
                                       std::size_t node_hi, std::size_t hi,
                                       const ExecutionState& state) {
  const std::size_t node = ch.base + k;
  if (node_lo >= hi || min_rank_[node] == kNoRank ||
      !state.fits(min_mem_[node])) {
    return;
  }
  if (k >= ch.width) {
    fitting_pos_.push_back(leaf_pos_[ch.first + node_lo]);
    return;
  }
  const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
  collect_fitting(ch, 2 * k, node_lo, mid, hi, state);
  collect_fitting(ch, 2 * k + 1, mid, node_hi, hi, state);
}

std::size_t CandidateScratch::scan_closure(const CompiledInstance& ci,
                                           const ExecutionState& state,
                                           Time t) {
  fitting_pos_.clear();
  for (const Channel& ch : channels_) {
    if (ch.first_fit != npos) collect_fitting(ch, 1, 0, ch.width, ch.hi, state);
  }
  for (std::size_t i = 0; i < floored_.size(); ++i) {
    if (floored_idle_[i] >= 0.0 && floored_idle_[i] <= t) {
      fitting_pos_.push_back(floored_[i]);
    }
  }
  std::sort(fitting_pos_.begin(), fitting_pos_.end());
  return pick_in_order(ci, state);
}

std::size_t CandidateScratch::scan(const CompiledInstance& ci,
                                   const ExecutionState& state) {
  fitting_pos_.clear();
  for (std::size_t pos = 0; pos < task_.size(); ++pos) {
    if (ready(pos) && state.fits(ci.mem(task_[pos]))) {
      fitting_pos_.push_back(static_cast<std::uint32_t>(pos));
    }
  }
  return pick_in_order(ci, state);
}

std::size_t CandidateScratch::pick_in_order(const CompiledInstance& ci,
                                            const ExecutionState& state) {
  fitting_.clear();
  floors_.clear();
  for (const std::uint32_t pos : fitting_pos_) {
    fitting_.push_back(task_[pos]);
    if (dag_) floors_.push_back(floor_[pos]);
  }
  const TaskId chosen =
      pick_candidate(ci, state, fitting_, criterion_, floors_);
  if (chosen == kInvalidTask) return npos;
  const auto k = static_cast<std::size_t>(
      std::find(fitting_.begin(), fitting_.end(), chosen) - fitting_.begin());
  return fitting_pos_[k];
}

std::size_t CandidateScratch::select(const CompiledInstance& ci,
                                     const ExecutionState& state) {
  const std::size_t chosen = choose(ci, state);
  if (oracle_ && scan(ci, state) != chosen) ++stats_.mismatches;
  return chosen;
}

// dts-lint: hot-path
void CandidateScratch::issue(const CompiledInstance& ci, std::size_t pos,
                             ExecutionState& state, Schedule& out) {
  DTS_EXPECT(ready(pos), "only a runnable pending task can be issued");
  const TaskId id = task_[pos];
  const TaskTimes tt =
      state.issue(id, ci.comm(id), ci.comp(id), ci.mem(id), ci.channel(id),
                  dag_ ? floor_[pos] : 0.0);
  out.set(id, tt.comm_start, tt.comp_start);
  if (status_[pos] == kIndexed) {
    set_leaf(ci, pos, false);
  } else {
    *std::find(floored_.begin(), floored_.end(), pos) = floored_.back();
    floored_.pop_back();
  }
  status_[pos] = kIssued;
  --pending_;
  --ready_count_;
  if (!dag_) return;
  // Release successors: the last predecessor to issue fixes a task's
  // floor (its predecessors' latest computation end).
  for (const TaskId succ : ci.successors(id)) {
    const auto it = std::lower_bound(
        by_task_.begin(), by_task_.end(), succ,
        [](const std::pair<TaskId, std::uint32_t>& e, TaskId t) {
          return e.first < t;
        });
    if (it == by_task_.end() || it->first != succ) continue;
    const std::uint32_t q = it->second;
    if (status_[q] != kBlocked || --remaining_[q] > 0) continue;
    floor_[q] = predecessor_floor(ci, out, succ);
    status_[q] = kFloored;
    floored_.push_back(q);
    ++ready_count_;
  }
}

void CandidateScratch::throw_stalled(const char* who,
                                     const CompiledInstance& ci,
                                     const Schedule& out) const {
  if (ready_count_ > 0) {
    throw std::invalid_argument(
        std::string(who) + ": a pending task exceeds the memory capacity");
  }
  // Cross-batch deadlock: every pending task waits on a predecessor that
  // is neither pending nor scheduled.
  for (std::size_t pos = 0; pos < task_.size(); ++pos) {
    if (status_[pos] == kIssued) continue;
    for (const TaskId dep : ci.deps(task_[pos])) {
      if (!out[dep].scheduled()) {
        throw std::invalid_argument(
            std::string(who) + ": task " + std::to_string(task_[pos]) +
            " waits on predecessor " + std::to_string(dep) +
            " which is neither scheduled nor pending here");
      }
    }
  }
  throw std::logic_error(std::string(who) + ": no pending task is ready");
}

void dynamic_step(const char* who, const CompiledInstance& ci,
                  ExecutionState& state, Schedule& out,
                  CandidateScratch& scratch) {
  const std::size_t chosen = scratch.select(ci, state);
  // Every audit-build decision is checked against the linear scan.
  DTS_AUDIT(scratch.stats().mismatches == 0,
            "indexed candidate differs from the pick_candidate scan");
  if (chosen != CandidateScratch::npos) {
    scratch.issue(ci, chosen, state, out);
    return;
  }
  // Nothing runnable fits: wait for the next memory release.
  if (!scratch.any_ready() || !state.advance_to_next_release()) {
    scratch.throw_stalled(who, ci, out);
  }
}

}  // namespace detail

void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, ExecutionState& state,
                     Schedule& out, detail::CandidateScratch& scratch) {
  scratch.build(ci, ids, criterion, out);
  while (!scratch.empty()) {
    detail::dynamic_step("execute_dynamic", ci, state, out, scratch);
  }
}

}  // namespace dts
