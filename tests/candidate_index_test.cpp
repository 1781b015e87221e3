// The incremental candidate index of the dynamic and corrected heuristics
// (detail::CandidateScratch) against its oracle: at every decision the
// indexed choice must equal pick_candidate's linear scan over the
// runnable fitting tasks in pending order. The scratch's oracle mode
// runs that scan beside every select() and counts disagreements.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/registry.hpp"
#include "core/validate.hpp"
#include "heuristics/dynamic.hpp"
#include "model/machine.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "trace/transforms.hpp"

namespace dts {
namespace {

/// The dynamic rows of the heuristic table (LCMR, SCMR, MAMR).
std::vector<const Heuristic*> dynamic_rows() {
  std::vector<const Heuristic*> rows;
  for (const Heuristic& h : heuristics()) {
    if (h.family == HeuristicFamily::kDynamic) rows.push_back(&h);
  }
  return rows;
}

/// Capacity regimes: the largest footprint (every decision memory-bound),
/// a moderate margin, and enough room that memory rarely binds.
constexpr double kCapacityFactors[] = {1.0, 1.25, 4.0};

/// Runs every dynamic and corrected row of the heuristic table with the
/// oracle on; returns the summed counters. Every schedule must be
/// feasible and every decision must agree with the scan.
detail::CandidateStats check_all_decisions(const Instance& inst, Mem capacity) {
  const CompiledInstance ci(inst);
  detail::CandidateStats total;
  for (const Heuristic& h : heuristics()) {
    if (h.order != nullptr) continue;  // static rows make no decisions
    detail::CandidateScratch scratch;
    scratch.set_oracle(true);
    ExecutionState state(capacity, inst.num_channels());
    Schedule sched(inst.size());
    h.step(inst, ci, inst.submission_order(), state, sched, scratch);
    EXPECT_EQ(scratch.stats().mismatches, 0u)
        << h.name << " at capacity " << capacity;
    EXPECT_TRUE(validate_schedule(inst, sched, capacity).ok());
    total.decisions += scratch.stats().decisions;
    total.fallbacks += scratch.stats().fallbacks;
    total.mismatches += scratch.stats().mismatches;
  }
  return total;
}

/// The three chemistry corpora: HF, CCSD and CCSD contraction chains.
enum class Corpus { kHF, kCCSD, kCCSDDag };
constexpr Corpus kCorpora[] = {Corpus::kHF, Corpus::kCCSD, Corpus::kCCSDDag};

const char* name_of(Corpus corpus) {
  switch (corpus) {
    case Corpus::kHF: return "HF";
    case Corpus::kCCSD: return "CCSD";
    case Corpus::kCCSDDag: return "CCSD-DAG";
  }
  return "?";
}

Instance generate(Corpus corpus, const TraceConfig& config) {
  switch (corpus) {
    case Corpus::kHF:
      return generate_trace(ChemistryKernel::kHartreeFock, config);
    case Corpus::kCCSD:
      return generate_trace(ChemistryKernel::kCoupledClusterSD, config);
    case Corpus::kCCSDDag: return generate_ccsd_dag_trace(config);
  }
  return {};
}

TraceConfig config_for(std::uint64_t seed, std::size_t tasks) {
  TraceConfig config;
  config.seed = seed;
  config.min_tasks = tasks;
  config.max_tasks = tasks;
  return config;
}

TEST(CandidateIndex, MatchesScanOnChemistryCorpora) {
  std::uint64_t decisions = 0;
  for (const Corpus corpus : kCorpora) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Instance inst = generate(corpus, config_for(seed, 160));
      for (const double factor : kCapacityFactors) {
        SCOPED_TRACE(std::string(name_of(corpus)) + " seed " +
                     std::to_string(seed) + " x" + std::to_string(factor));
        decisions +=
            check_all_decisions(inst, factor * inst.min_capacity()).decisions;
      }
    }
  }
  EXPECT_GT(decisions, 0u);
}

TEST(CandidateIndex, MatchesScanOnDuplexAndTwelveEngineMachines) {
  TraceConfig duplex = config_for(5, 160);
  duplex.machine = MachineModel::duplex_pcie();
  const Machine summit = machine_from_name("summit-multi-gpu");
  ASSERT_EQ(summit.num_channels(), 12u);
  for (const Corpus corpus : {Corpus::kCCSD, Corpus::kCCSDDag}) {
    const Instance generated = generate(corpus, duplex);
    ASSERT_EQ(generated.num_channels(), 2u);
    // The same byte workload spread over the 12 copy engines.
    Rng rng(9);
    std::vector<Task> tasks(generated.begin(), generated.end());
    for (Task& t : tasks) {
      t.channel = static_cast<ChannelId>(rng.uniform_u64(0, 11));
    }
    const Instance spread = bind(strip_comm_times(Instance(std::move(tasks))),
                                 summit);
    ASSERT_EQ(spread.num_channels(), 12u);
    for (const Instance* inst : {&generated, &spread}) {
      for (const double factor : kCapacityFactors) {
        SCOPED_TRACE(std::string(name_of(corpus)) + " on " +
                     std::to_string(inst->num_channels()) + " channels x" +
                     std::to_string(factor));
        (void)check_all_decisions(*inst, factor * inst->min_capacity());
      }
    }
  }
}

TEST(CandidateIndex, BatchesOnCarriedStateMatchScan) {
  // execute_dynamic over consecutive subsets on one engine and one
  // Schedule, as the batch runtime drives it: the index is rebuilt per
  // batch on the same scratch, and on a DAG readiness flows through the
  // schedule from earlier batches.
  for (const Corpus corpus : {Corpus::kHF, Corpus::kCCSDDag}) {
    const Instance inst = generate(corpus, config_for(3, 150));
    const CompiledInstance ci(inst);
    const std::vector<TaskId> sequence = inst.topological_order();
    const Mem capacity = 1.25 * inst.min_capacity();
    for (const Heuristic* h : dynamic_rows()) {
      detail::CandidateScratch scratch;
      scratch.set_oracle(true);
      ExecutionState state(capacity, inst.num_channels());
      Schedule sched(inst.size());
      for (std::size_t lo = 0; lo < sequence.size(); lo += 37) {
        const std::size_t hi = std::min(lo + 37, sequence.size());
        execute_dynamic(ci, std::span(sequence).subspan(lo, hi - lo),
                        h->criterion, state, sched, scratch);
      }
      EXPECT_EQ(scratch.stats().mismatches, 0u) << h->name;
      EXPECT_GT(scratch.stats().decisions, 0u);
      EXPECT_TRUE(validate_schedule(inst, sched, capacity).ok());
    }
  }
}

/// Tasks whose comm values differ by less than kEps: their induced idles
/// tie under definitely_less without being equal, the case the index
/// hands to the linear scan.
Instance near_tie_instance(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = 1.0 + static_cast<double>(rng.uniform_u64(0, 8)) * 4e-10;
    t.comp = rng.uniform(0.5, 2.0);
    t.mem = static_cast<Mem>(rng.uniform_u64(1, 4));
    tasks.push_back(t);
  }
  return Instance(std::move(tasks));
}

TEST(CandidateIndex, NearTiesFallBackToTheScan) {
  std::uint64_t fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance inst = near_tie_instance(40, seed);
    for (const Mem capacity : {4.0, 9.0, kInfiniteMem}) {
      const detail::CandidateStats stats = check_all_decisions(inst, capacity);
      EXPECT_EQ(stats.mismatches, 0u);
      fallbacks += stats.fallbacks;
    }
  }
  EXPECT_GT(fallbacks, 0u) << "near-tie instances must force the fallback";
}

TEST(CandidateIndex, NonTransitiveTieChainFollowsScanOrder) {
  // a ~ b and b ~ c under the epsilon rule, yet a < c definitely: the
  // scan's answer depends on the pending order, which the fallback keeps.
  // The processor is busy first so the criterion, not the idle, decides
  // between equal-idle tasks afterwards.
  const Instance inst = Instance::from_comm_comp(
      {{1.0 + 4e-9, 3.0}, {1.0 + 2e-9, 1.0}, {1.0, 2.0}, {1.0, 0.5}});
  for (const Heuristic* h : dynamic_rows()) {
    detail::CandidateScratch scratch;
    scratch.set_oracle(true);
    ExecutionState state(kInfiniteMem);
    Schedule sched(inst.size());
    execute_dynamic(CompiledInstance(inst), inst.submission_order(),
                    h->criterion, state, sched, scratch);
    EXPECT_EQ(scratch.stats().mismatches, 0u) << h->name;
    EXPECT_GT(scratch.stats().fallbacks, 0u) << h->name;
  }
}

TEST(CandidateIndex, ChemistryDecisionsRarelyNeedTheScan) {
  // The fallback is for epsilon near-ties only; on generated traces the
  // index answers almost every decision itself.
  const Instance inst = generate(Corpus::kCCSD, config_for(7, 200));
  const detail::CandidateStats stats =
      check_all_decisions(inst, 1.25 * inst.min_capacity());
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_LE(stats.fallbacks * 20, stats.decisions);
}

}  // namespace
}  // namespace dts
