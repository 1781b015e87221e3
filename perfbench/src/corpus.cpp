#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/instance.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

// Request rates that size each timed list: requests per second of
// `--seconds` on a 4-core x86 container. They fix the amount of work for
// a given seed and duration; the run never adapts them to the clock.
constexpr double kLargeRequestsPerSecond = 4.8;
constexpr double kSearchRequestsPerSecond = 100.0;
constexpr double kServeRequestsPerSecond = 650.0;
constexpr std::size_t kLocalSearchIterations = 1500;
constexpr std::size_t kMilpNodes = 300;

/// Independent stream per (seed, purpose, index): generators never share
/// a seed, so adding a request kind cannot shift the traces of another.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose,
                     std::uint64_t index) {
  dts::Rng rng(seed * 0x9E3779B97F4A7C15ULL + purpose * 0xD1B54A32D192ED03ULL +
               index);
  return rng.next_u64() | 1ULL;
}

dts::Instance generate(std::string_view kernel, std::size_t tasks,
                       std::uint64_t seed) {
  dts::TraceConfig config;
  config.seed = seed;
  config.min_tasks = tasks;
  config.max_tasks = tasks;
  if (kernel == "HF") return dts::generate_hf_trace(config);
  if (kernel == "CCSD") return dts::generate_ccsd_trace(config);
  if (kernel == "CCSD-DAG") return dts::generate_ccsd_dag_trace(config);
  throw std::invalid_argument("unknown kernel " + std::string(kernel));
}

std::string to_text(const dts::Instance& inst) {
  std::ostringstream out;
  dts::write_trace(out, inst);
  return out.str();
}

/// The same tasks submitted in another order; edges follow their tasks.
dts::Instance permuted(const dts::Instance& inst, std::uint64_t seed) {
  std::vector<dts::TaskId> order(inst.size());
  std::iota(order.begin(), order.end(), dts::TaskId{0});
  dts::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u64() % i]);
  }
  std::vector<dts::TaskId> position(inst.size());
  for (std::size_t p = 0; p < order.size(); ++p) position[order[p]] = p;
  std::vector<dts::Task> tasks;
  tasks.reserve(inst.size());
  for (const dts::TaskId id : order) {
    dts::Task task = inst[id];
    for (dts::TaskId& dep : task.deps) dep = position[dep];
    tasks.push_back(std::move(task));
  }
  return dts::Instance(std::move(tasks));
}

dts::Instance without_edges(const dts::Instance& inst) {
  std::vector<dts::Task> tasks = inst.tasks();
  for (dts::Task& task : tasks) task.deps.clear();
  return dts::Instance(std::move(tasks));
}

std::size_t scaled_count(double seconds, double rate, std::size_t multiple) {
  const double raw = std::max(1.0, seconds) * rate;
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(raw / static_cast<double>(multiple))));
  return rounds * multiple;
}

std::string frame_text(const std::string& id, const ServeFrame& f) {
  std::ostringstream out;
  out.precision(17);  // the cold reference solves the exact same capacity
  out << "dts1 solve " << id << "\n"
      << "solver " << f.solver << "\n"
      << "capacity-factor " << f.capacity_factor << "\n";
  if (!f.machine.empty()) out << "machine " << f.machine << "\n";
  out << "trace " << f.trace_text.size() << "\n" << f.trace_text << "end\n";
  return out.str();
}

}  // namespace

const char* to_string(ServeKind kind) {
  switch (kind) {
    case ServeKind::kRepeat: return "repeat";
    case ServeKind::kPermuted: return "permuted";
    case ServeKind::kTwin: return "twin";
    case ServeKind::kFresh: return "fresh";
  }
  return "?";
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

SolveCorpus solve_large_corpus(std::uint64_t seed, double seconds) {
  // Fixed sizes on an even 2000..4000 grid, kernels in turn. Fixed, so
  // latencies vary across seeds only through trace contents; a fine grid,
  // so request latencies form a continuum and their median does not jump
  // between two instances' values from run to run.
  static constexpr std::size_t kDistinct = 18;
  static constexpr std::string_view kKernels[] = {"HF", "CCSD", "CCSD-DAG"};
  SolveCorpus corpus;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const std::string_view kernel = kKernels[i % 3];
    const std::size_t tasks = 2000 + i * 2000 / (kDistinct - 1);
    const dts::Instance inst = generate(kernel, tasks, derive(seed, 1, i));
    SolveRequestSpec spec;
    spec.label = std::string(kernel) + "/" + std::to_string(tasks);
    spec.trace_text = to_text(inst);
    spec.tasks = inst.size();
    spec.machine = i % 4 == 1 ? "pcie-gpu" : "";
    spec.solver = "auto";
    corpus.distinct.push_back(std::move(spec));
  }
  const std::size_t total =
      scaled_count(seconds, kLargeRequestsPerSecond, kDistinct);
  for (std::size_t i = 0; i < total; ++i) {
    corpus.timed.push_back(i % kDistinct);
  }
  return corpus;
}

SolveCorpus solve_search_corpus(std::uint64_t seed, double seconds) {
  SolveCorpus corpus;
  const auto add = [&](std::string_view kernel, std::size_t tasks,
                       std::string solver, std::uint64_t stream,
                       std::size_t index) {
    const dts::Instance inst =
        generate(kernel, tasks, derive(seed, stream, index));
    SolveRequestSpec spec;
    spec.label = std::string(kernel) + "/" + std::to_string(tasks);
    spec.trace_text = to_text(inst);
    spec.tasks = inst.size();
    spec.solver = std::move(solver);
    spec.solver_seed = 7;
    corpus.distinct.push_back(std::move(spec));
  };
  // Many small exact searches rather than a few large ones: how much of
  // its tree a search prunes varies a lot between instances, and a mean
  // over many instances keeps that variation out of the seed-to-seed
  // spread. HF instances barely prune, so their searches carry the work;
  // the cheaper requests below them and the dearer ones above are about
  // as many, so the median request is one of these searches.
  for (std::size_t i = 0; i < 28; ++i) add("HF", 5, "branch-bound", 2, i);
  for (std::size_t i = 0; i < 8; ++i) add("CCSD", 5, "branch-bound", 2, i);
  // The CCSD-DAG generator's smallest traces have 8 or 9 tasks, and
  // branch-and-bound over 8 either stops at once on its bound or scans
  // for a hundred milliseconds; its first 6 tasks (edges among them kept)
  // stay in the many-small-searches regime of the independent traces.
  for (std::size_t i = 0; i < 4; ++i) {
    add("CCSD-DAG", 6, "branch-bound", 3, i);
    SolveRequestSpec& spec = corpus.distinct.back();
    std::istringstream text(spec.trace_text);
    const std::vector<dts::TaskId> head = {0, 1, 2, 3, 4, 5};
    const dts::Instance small = dts::read_trace(text).subset(head);
    spec.label = "CCSD-DAG/6";
    spec.trace_text = to_text(small);
    spec.tasks = small.size();
  }
  // A MILP either closes at the root relaxation or branches; a node cap
  // (the solver reads it from max_iterations) gives every branching draw
  // about the same work.
  for (std::size_t i = 0; i < 12; ++i) {
    add(i < 10 ? "HF" : "CCSD", 4, "milp", 6, i);
    corpus.distinct.back().max_iterations = kMilpNodes;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    add("HF", 8, "exhaustive", 4, i);
    add("CCSD", 8, "exhaustive", 4, i);
  }
  // Local search runs a fixed number of candidates (no early stop), so
  // its work does not depend on when improvements dry up; three traces per
  // kernel average out how costly one trace's moves happen to be.
  for (const std::string_view kernel : {"HF", "CCSD", "CCSD-DAG"}) {
    for (std::size_t i = 0; i < 3; ++i) {
      add(kernel, 500, "local-search", 5, i);
      corpus.distinct.back().max_iterations = kLocalSearchIterations;
      corpus.distinct.back().max_no_improve = kLocalSearchIterations;
    }
  }
  const std::size_t d = corpus.distinct.size();
  const std::size_t total = scaled_count(seconds, kSearchRequestsPerSecond, d);
  for (std::size_t i = 0; i < total; ++i) corpus.timed.push_back(i % d);
  return corpus;
}

ServeCorpus serve_mixed_corpus(std::uint64_t seed, double seconds) {
  static constexpr std::string_view kKernels[] = {"HF", "CCSD", "CCSD-DAG"};
  static constexpr std::size_t kShapes = 48;
  static constexpr std::size_t kPermutedVariants = 6;
  static constexpr std::size_t kFresh = 21;
  static constexpr std::size_t kFreshTasks = 800;
  ServeCorpus corpus;
  std::vector<dts::Instance> shape_instances;

  // Repeated shapes: sizes on a fixed 300..800 grid, kernels in turn,
  // every third on a named machine, a few single-heuristic solvers whose
  // answers depend on submission order.
  for (std::size_t i = 0; i < kShapes; ++i) {
    const std::string_view kernel = kKernels[i % 3];
    const std::size_t tasks = 300 + (i * 500) / (kShapes - 1);
    dts::Instance inst = generate(kernel, tasks, derive(seed, 10, i));
    ServeFrame f;
    f.kind = ServeKind::kRepeat;
    f.trace_text = to_text(inst);
    f.machine = i % 3 == 1 ? "pcie-gpu" : "";
    f.solver = i % 4 == 3 ? "OS" : (i % 4 == 2 ? "OOLCMR" : "auto");
    f.capacity_factor = i % 2 == 0 ? 1.5 : 1.25;
    corpus.fill.push_back(corpus.frames.size());
    corpus.frames.push_back(std::move(f));
    shape_instances.push_back(std::move(inst));
  }
  std::vector<std::size_t> repeats = corpus.fill;

  // Permuted repeats of set-up shapes: same canonical key, other ids.
  std::vector<std::size_t> permutes;
  for (std::size_t v = 0; v < kPermutedVariants; ++v) {
    const std::size_t base = (v * 5 + 3) % kShapes;
    ServeFrame f = corpus.frames[base];
    f.kind = ServeKind::kPermuted;
    f.trace_text =
        to_text(permuted(shape_instances[base], derive(seed, 11, v)));
    permutes.push_back(corpus.frames.size());
    corpus.frames.push_back(std::move(f));
  }

  // DAG / edge-free twins: two pairs, one sent DAG-first and one sent
  // twin-first in the fill pass. Both members of both pairs repeat.
  std::vector<std::size_t> twins;
  for (std::size_t p = 0; p < 2; ++p) {
    const std::size_t tasks = 400 + 200 * p;
    const dts::Instance dag =
        generate("CCSD-DAG", tasks, derive(seed, 12, p));
    ServeFrame with;
    with.kind = ServeKind::kTwin;
    with.trace_text = to_text(dag);
    with.solver = "auto";
    ServeFrame free = with;
    free.trace_text = to_text(without_edges(dag));
    const std::size_t a = corpus.frames.size();
    corpus.frames.push_back(std::move(with));
    corpus.frames.push_back(std::move(free));
    twins.push_back(a);
    twins.push_back(a + 1);
    corpus.fill.push_back(p == 0 ? a : a + 1);
    corpus.fill.push_back(p == 0 ? a + 1 : a);
  }

  // The timed list: mostly repeats, some permuted repeats and twins, and
  // kFresh fresh shapes that miss. Misses are the slowest requests, so
  // the latency tail (the 11th slowest request) is the median miss: an
  // order statistic that one slow moment on the host does not move.
  const std::size_t total =
      scaled_count(seconds, kServeRequestsPerSecond, 100);
  dts::Rng pick(derive(seed, 13, 0));
  std::vector<std::size_t> sequence;
  sequence.reserve(total);
  for (std::size_t i = 0; i < total - kFresh; ++i) {
    const std::size_t slot = i % 100;
    if (slot < 88) {
      sequence.push_back(repeats[pick.next_u64() % repeats.size()]);
    } else if (slot < 94) {
      sequence.push_back(permutes[pick.next_u64() % permutes.size()]);
    } else {
      sequence.push_back(twins[pick.next_u64() % twins.size()]);
    }
  }
  // The fresh shape is swept over memory capacities, as the paper's
  // evaluation sweeps [mc, 2mc]: every capacity is a new cache key, and
  // the misses stay one kind of work.
  const dts::Instance fresh_inst =
      generate("CCSD", kFreshTasks, derive(seed, 14, 0));
  for (std::size_t i = 0; i < kFresh; ++i) {
    ServeFrame f;
    f.kind = ServeKind::kFresh;
    f.trace_text = to_text(fresh_inst);
    f.solver = "auto";
    f.capacity_factor = 1.3 + 0.01 * static_cast<double>(i);
    sequence.push_back(corpus.frames.size());
    corpus.frames.push_back(std::move(f));
  }

  // Deterministic shuffle, then deal the list round-robin to the clients.
  for (std::size_t i = sequence.size(); i > 1; --i) {
    std::swap(sequence[i - 1], sequence[pick.next_u64() % i]);
  }
  corpus.per_client.assign(kServeClients, {});
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    corpus.per_client[i % kServeClients].push_back(sequence[i]);
  }
  for (std::size_t i = 0; i < corpus.frames.size(); ++i) {
    corpus.frames[i].frame = frame_text("f" + std::to_string(i),
                                        corpus.frames[i]);
  }
  return corpus;
}

}  // namespace perfbench
