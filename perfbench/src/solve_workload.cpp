// The solve workloads: one closed-loop client sends each request, waits
// for the answer, then sends the next. A request is
//
//   trace text -> read_trace -> bind (when it names a machine)
//              -> capacity_aware_bounds -> solve
//
// and its output is checked after the clock stops: validate_schedule,
// the makespan against the schedule, and (for auto) the makespan against
// the best of its candidates solved one by one.

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <functional>
#include <numeric>
#include <queue>
#include <sstream>
#include <string>
#include <utility>

#include "core/compiled.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "exact/lower_bounds.hpp"
#include "harness.hpp"
#include "model/machine.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

struct Solved {
  dts::SolveRequest request;
  dts::SolveResult result;
  /// Separate solves of auto's candidates (traced pass only).
  std::vector<std::pair<std::string, dts::Time>> candidates;
};

/// What must repeat bit for bit every time one corpus entry is solved.
struct Signature {
  std::uint64_t makespan_bits = 0;
  std::uint64_t evaluations = 0;
  std::string winner;
  bool operator==(const Signature&) const = default;
};

dts::SolveOptions options_for(const SolveRequestSpec& spec) {
  dts::SolveOptions options;
  options.parallel_candidates = false;  // candidate times add up to auto's
  options.compute_bounds = false;       // the pipeline's own bounds stage
  options.seed = spec.solver_seed;
  options.max_iterations = spec.max_iterations;
  options.max_no_improve = spec.max_no_improve;
  return options;
}

/// The timed request. Span names are the layer each call enters.
Solved serve_one(const SolveRequestSpec& spec, Tracer* tracer,
                 std::uint64_t request, std::uint64_t root,
                 bool side_candidates) {
  Solved out;
  dts::Instance parsed;
  {
    Span span(tracer, "trace.parse", request, root);
    span.tag("bytes=" + std::to_string(spec.trace_text.size()));
    std::istringstream in(spec.trace_text);
    parsed = dts::read_trace(in);
  }
  if (!spec.machine.empty()) {
    Span span(tracer, "model.bind", request, root);
    const dts::Machine machine = dts::machine_from_name(spec.machine);
    out.request.instance = dts::bind(parsed, machine);
    out.request.channels = machine.channel_set();
  } else {
    out.request.instance = std::move(parsed);
  }
  out.request.capacity =
      spec.capacity_factor * out.request.instance.min_capacity();
  dts::CapacityAwareBounds bounds;
  {
    Span span(tracer, "core.bounds", request, root);
    bounds = dts::capacity_aware_bounds(out.request.instance,
                                        out.request.capacity);
  }
  const dts::SolveOptions options = options_for(spec);
  {
    Span span(tracer, "solve." + spec.solver, request, root);
    out.result = dts::solve(out.request, spec.solver, options);
    span.tag("n=" + std::to_string(spec.tasks) +
             ";evals=" + std::to_string(out.result.evaluations) +
             ";kernel=" + spec.label.substr(0, spec.label.find('/')));
  }
  out.result.bounds = bounds;
  if (side_candidates) {
    // Per-candidate cost: each of auto's candidates solved on its own,
    // next to the auto solve. Side calls: they are not part of the
    // request's latency (metrics.py subtracts spans tagged "side").
    for (const dts::CandidateOutcome& c : out.result.outcomes) {
      Span span(tracer, "heuristics." + c.name, request, root);
      span.tag("side");
      out.candidates.emplace_back(
          c.name, dts::solve(out.request, c.name, options).makespan);
    }
  }
  return out;
}

/// Peak memory when a release within the engine's epsilon of a transfer
/// start counts as coming first. validate_schedule sweeps with exact
/// instants, the engine compares with definitely_less; where only this
/// reading fits the capacity, the two disagree about the same schedule.
dts::Mem epsilon_tolerant_peak(const dts::Instance& inst,
                               const dts::Schedule& sched) {
  std::vector<dts::TaskId> by_start(inst.size());
  std::iota(by_start.begin(), by_start.end(), dts::TaskId{0});
  std::sort(by_start.begin(), by_start.end(), [&](dts::TaskId a, dts::TaskId b) {
    return sched[a].comm_start < sched[b].comm_start;
  });
  using Held = std::pair<dts::Time, dts::Mem>;  // (computation end, memory)
  std::priority_queue<Held, std::vector<Held>, std::greater<>> held;
  dts::Mem used = 0.0;
  dts::Mem peak = 0.0;
  for (const dts::TaskId id : by_start) {
    const dts::Time start = sched[id].comm_start;
    while (!held.empty() && dts::approx_leq(held.top().first, start)) {
      used -= held.top().second;
      held.pop();
    }
    used += inst[id].mem;
    held.emplace(sched[id].comp_start + inst[id].comp, inst[id].mem);
    peak = std::max(peak, used);
  }
  return peak;
}

enum class Verdict {
  kOk,
  /// validate_schedule reports a memory excess that exists only at
  /// sub-epsilon resolution: the validator/engine disagreement above.
  kEpsilonMemory,
  kFailed,
};

/// Output checks, run outside the timed region.
Verdict check(const Solved& s, const SolveRequestSpec& spec, Tracer* tracer,
              std::uint64_t request, std::vector<std::string>& notes) {
  Span root(tracer, "check", request);
  root.tag("side");
  const dts::Instance& inst = s.request.instance;
  if (tracer != nullptr) {
    std::optional<dts::CompiledInstance> ci;
    {
      Span span(tracer, "core.compile", request, root.id());
      ci.emplace(inst);
    }
    const std::vector<dts::TaskId> order = s.result.schedule.comm_order();
    const std::size_t evals = std::max<std::size_t>(1, 20000 / inst.size());
    dts::EvalScratch scratch;
    try {
      Span span(tracer, "core.evaluate_order", request, root.id());
      span.tag("evals=" + std::to_string(evals));
      for (std::size_t i = 0; i < evals; ++i) {
        (void)dts::evaluate_order(*ci, order, s.request.capacity, scratch);
      }
    } catch (const std::exception&) {
      // A dynamic heuristic's schedule need not replay from its comm
      // order alone; the probe then just has no sample for this request.
    }
  }
  Verdict verdict = Verdict::kOk;
  {
    Span span(tracer, "core.validate", request, root.id());
    const dts::ValidationReport report =
        dts::validate_schedule(inst, s.result.schedule, s.request.capacity);
    if (!report.ok()) {
      notes.push_back("invalid schedule for " + spec.label + ": " +
                      report.summary());
      const bool memory_only = std::all_of(
          report.violations.begin(), report.violations.end(),
          [](const dts::Violation& v) {
            return v.kind == dts::Violation::Kind::kMemoryExceeded;
          });
      verdict = memory_only && dts::approx_leq(epsilon_tolerant_peak(
                                                   inst, s.result.schedule),
                                               s.request.capacity)
                    ? Verdict::kEpsilonMemory
                    : Verdict::kFailed;
    }
  }
  if (s.result.makespan != s.result.schedule.makespan(inst)) {
    notes.push_back("makespan differs from its schedule for " + spec.label);
    verdict = Verdict::kFailed;
  }
  return verdict;
}

Signature signature_of(const dts::SolveResult& r) {
  return Signature{std::bit_cast<std::uint64_t>(r.makespan), r.evaluations,
                   r.winner};
}

/// auto's makespan must equal the best of its candidates solved one by
/// one, bitwise.
bool check_auto_against_candidates(
    const Solved& s, const SolveRequestSpec& spec,
    std::vector<std::string>& notes) {
  const dts::SolveOptions options = options_for(spec);
  dts::Time best = dts::kInfiniteTime;
  if (!s.candidates.empty()) {
    for (const auto& [name, makespan] : s.candidates) {
      best = std::min(best, makespan);
    }
  } else {
    for (const dts::CandidateOutcome& c : s.result.outcomes) {
      best = std::min(best, dts::solve(s.request, c.name, options).makespan);
    }
  }
  if (best != s.result.makespan) {
    notes.push_back("auto makespan differs from its best candidate for " +
                    spec.label);
    return false;
  }
  return true;
}

class SolvePassRunner {
 public:
  SolvePassRunner(const SolveCorpus& corpus, bool side_candidates)
      : corpus_(corpus),
        side_candidates_(side_candidates),
        signatures_(corpus.distinct.size()),
        candidates_checked_(corpus.distinct.size(), false) {}

  /// Serves `list` (indices into the corpus) once.
  PassStats run(const std::vector<std::size_t>& list, Tracer* tracer,
                WorkloadRun& run) {
    PassStats pass;
    std::vector<Solved> outputs;
    outputs.reserve(list.size());
    std::vector<bool> threw(list.size(), false);
    std::vector<std::uint64_t> ids(list.size(), 0);
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < list.size(); ++i) {
      const SolveRequestSpec& spec = corpus_.distinct[list[i]];
      const std::uint64_t id = tracer != nullptr ? tracer->next_id() : 0;
      ids[i] = id;
      Span root(tracer, "request", id);
      root.tag(spec.label);
      const Clock::time_point t0 = Clock::now();
      try {
        outputs.push_back(serve_one(spec, tracer, id, root.id(),
                                    side_candidates_ && tracer != nullptr));
      } catch (const std::exception& e) {
        outputs.emplace_back();
        threw[i] = true;
        run.notes.push_back("request " + spec.label + " failed: " + e.what());
      }
      pass.latencies_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    pass.wall_s =
        std::chrono::duration<double>(Clock::now() - pass_start).count();

    for (std::size_t i = 0; i < list.size(); ++i) {
      const SolveRequestSpec& spec = corpus_.distinct[list[i]];
      ++pass.attempted;
      if (threw[i]) {
        ++pass.failed;
        continue;
      }
      const Solved& s = outputs[i];
      Verdict verdict = check(s, spec, tracer, ids[i], run.notes);
      if (spec.solver == "auto" &&
          (!candidates_checked_[list[i]] || !s.candidates.empty())) {
        if (!check_auto_against_candidates(s, spec, run.notes)) {
          verdict = Verdict::kFailed;
        }
        candidates_checked_[list[i]] = true;
      }
      if (verdict != Verdict::kOk) ++pass.failed;
      if (verdict == Verdict::kEpsilonMemory) {
        ++pass.counts["invalid.epsilon-memory"];
      }
      const Signature sig = signature_of(s.result);
      auto& seen = signatures_[list[i]];
      if (!seen) {
        seen = sig;
      } else if (*seen != sig) {
        run.nondeterministic = true;
        run.notes.push_back("request " + spec.label +
                            " gave a different output on a repeat");
      }
      pass.log_ratio_sum += std::log(s.result.ratio_to_optimal());
      ++pass.ratio_count;
      pass.counts["evaluations." + spec.solver] += s.result.evaluations;
      pass.digest = mix(pass.digest, sig.makespan_bits);
      pass.digest = mix(pass.digest, sig.evaluations);
      pass.digest = mix(pass.digest, fnv1a(sig.winner));
    }
    return pass;
  }

 private:
  const SolveCorpus& corpus_;
  bool side_candidates_;
  std::vector<std::optional<Signature>> signatures_;
  std::vector<bool> candidates_checked_;
};

}  // namespace

WorkloadRun run_solve_workload(const SolveCorpus& corpus,
                               bool side_candidates,
                               const RunOptions& options) {
  WorkloadRun run;
  for (const SolveRequestSpec& spec : corpus.distinct) {
    run.request_digest = fnv1a(spec.trace_text, run.request_digest);
    run.request_digest = fnv1a(spec.solver + "|" + spec.machine,
                               run.request_digest);
  }
  for (const std::size_t i : corpus.timed) {
    run.request_digest = mix(run.request_digest, i);
  }

  SolvePassRunner runner(corpus, side_candidates);
  // Set-up: one untimed warm-up pass over the corpus, repeated so that
  // its median is stable. Its outputs seed the repeat checks.
  std::vector<std::size_t> warmup(corpus.distinct.size());
  for (std::size_t i = 0; i < warmup.size(); ++i) warmup[i] = i;
  for (std::size_t r = 0; r < options.setup_repetitions; ++r) {
    run.setup_s.push_back(runner.run(warmup, nullptr, run).wall_s);
  }
  if (options.timed_pass) run.timed = runner.run(corpus.timed, nullptr, run);
  if (options.tracer != nullptr) {
    run.traced = runner.run(corpus.timed, options.tracer, run);
  }
  return run;
}

}  // namespace perfbench
