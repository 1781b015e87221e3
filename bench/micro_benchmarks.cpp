/// Runtime micro-benchmarks (google-benchmark): scheduling cost of each
/// heuristic family versus task count, plus the building blocks (Johnson
/// sort, simulator, GG sequencing, validator). Not a paper figure — this
/// documents that every heuristic is cheap enough to run inside a runtime
/// system's scheduling loop, the paper's intended deployment.

#include <benchmark/benchmark.h>

#include "core/johnson.hpp"
#include "core/simulate.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "exact/window_solver.hpp"
#include "heuristics/gilmore_gomory.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"

namespace {

using namespace dts;

Instance make_instance(std::size_t n) {
  Rng rng(n * 2654435761u + 17);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Time comm = rng.uniform(0.1, 10.0);
    tasks.push_back(Task{.id = 0,
                         .comm = comm,
                         .comp = rng.uniform(0.1, 10.0),
                         .mem = comm,
                         .name = {}});
  }
  return Instance(std::move(tasks));
}

void BM_JohnsonOrder(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(johnson_order(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JohnsonOrder)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_SimulateOrder(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const std::vector<TaskId> order = inst.submission_order();
  const Mem capacity = 1.5 * inst.min_capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_order(inst, order, capacity));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimulateOrder)->Range(64, 4096)->Complexity();

void BM_GilmoreGomoryOrder(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gilmore_gomory_order(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GilmoreGomoryOrder)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_Validate(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const Mem capacity = 1.5 * inst.min_capacity();
  const Schedule sched =
      simulate_order(inst, inst.submission_order(), capacity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_schedule(inst, sched, capacity));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Validate)->Range(64, 4096)->Complexity();

void BM_Heuristic(benchmark::State& state, const char* name) {
  SolveRequest request;
  request.instance = make_instance(static_cast<std::size_t>(state.range(0)));
  request.capacity = 1.25 * request.instance.min_capacity();
  SolveOptions options;
  options.compute_bounds = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(request, name, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_Heuristic, OOSIM, "OOSIM")->Range(64, 2048)->Complexity();
BENCHMARK_CAPTURE(BM_Heuristic, BP, "BP")->Range(64, 2048)->Complexity();
BENCHMARK_CAPTURE(BM_Heuristic, LCMR, "LCMR")->Range(64, 2048)->Complexity();
BENCHMARK_CAPTURE(BM_Heuristic, OOMAMR, "OOMAMR")->Range(64, 2048)->Complexity();

void BM_WindowSolverLp4(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const Mem capacity = 1.25 * inst.min_capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule_windowed(inst, capacity, {.window = 4}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WindowSolverLp4)->Range(64, 512)->Complexity();

void BM_HfTraceGeneration(benchmark::State& state) {
  TraceConfig config;
  config.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_hf_trace(config));
  }
}
BENCHMARK(BM_HfTraceGeneration);

void BM_CcsdTraceGeneration(benchmark::State& state) {
  TraceConfig config;
  config.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_ccsd_trace(config));
  }
}
BENCHMARK(BM_CcsdTraceGeneration);

}  // namespace
