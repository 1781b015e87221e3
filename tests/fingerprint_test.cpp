/// Property tests for the canonical-instance fingerprint
/// (service/fingerprint.hpp): permutation, relabeling and trace
/// round-trips (v1/v2/v3) must preserve it; any value-level perturbation
/// (durations, memory, channel, byte annotation) or edge change must
/// change it across a large seeded corpus; and a cached order re-costed
/// per machine must reproduce a fresh solve on the bound instance bit for
/// bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/simulate.hpp"
#include "core/solver.hpp"
#include "model/machine.hpp"
#include "service/fingerprint.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"

namespace dts {
namespace {

/// Random instance exercising every fingerprint-relevant field: multiple
/// channels and (optionally) byte annotations.
Instance random_annotated_instance(Rng& rng, std::size_t n,
                                   std::size_t channels, bool bytes) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = rng.uniform(0.001, 10.0);
    t.comp = rng.uniform(0.001, 10.0);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(rng.index(channels));
    if (bytes) t.comm_bytes = rng.uniform(1.0, 1e9);
    t.name = "t" + std::to_string(i);
    tasks.push_back(t);
  }
  return Instance(std::move(tasks));
}

Instance shuffled(const Instance& inst, Rng& rng) {
  std::vector<TaskId> perm(inst.size());
  std::iota(perm.begin(), perm.end(), TaskId{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.index(i)]);
  }
  std::vector<Task> tasks;
  tasks.reserve(perm.size());
  for (TaskId id : perm) tasks.push_back(inst[id]);
  return Instance(std::move(tasks));
}

TEST(Fingerprint, PermutationInvariant) {
  Rng rng(1001);
  for (int round = 0; round < 50; ++round) {
    const Instance inst =
        random_annotated_instance(rng, 2 + rng.index(30), 1 + rng.index(3),
                                  round % 2 == 0);
    const Instance perm = shuffled(inst, rng);
    EXPECT_EQ(fingerprint_of(inst), fingerprint_of(perm)) << "round " << round;
  }
}

TEST(Fingerprint, RelabelingInvariant) {
  Rng rng(1002);
  const Instance inst = random_annotated_instance(rng, 20, 2, true);
  std::vector<Task> renamed(inst.tasks());
  for (std::size_t i = 0; i < renamed.size(); ++i) {
    renamed[i].name = "renamed-" + std::to_string(997 * i);
  }
  EXPECT_EQ(fingerprint_of(inst), fingerprint_of(Instance(std::move(renamed))));
}

TEST(Fingerprint, TraceRoundTripInvariantAcrossVersions) {
  Rng rng(1003);
  // v1: single channel, no bytes. v2: multi-channel, no bytes. v3: byte
  // annotations (the writer emits the lowest sufficient version).
  const Instance v1 = random_annotated_instance(rng, 25, 1, false);
  const Instance v2 = random_annotated_instance(rng, 25, 3, false);
  const Instance v3 = random_annotated_instance(rng, 25, 2, true);
  for (const Instance* inst : {&v1, &v2, &v3}) {
    std::stringstream buffer;
    write_trace(buffer, *inst);
    const Instance back = read_trace(buffer);
    EXPECT_EQ(fingerprint_of(*inst), fingerprint_of(back));
  }
}

TEST(Fingerprint, TimelessTraceFingerprintsMachineIndependently) {
  // A bytes-only workload has one fingerprint no matter which machine it
  // will be bound to — binding is a cache-key concern, not an identity
  // concern.
  std::vector<Task> tasks;
  for (int i = 0; i < 8; ++i) {
    Task t;
    t.comm = kUnboundTime;
    t.comm_bytes = 1e6 * (i + 1);
    t.comp = 0.25 * (i + 1);
    t.mem = 1e6 * (i + 1);
    tasks.push_back(t);
  }
  const Instance unbound{std::move(tasks)};
  const Fingerprint fp = fingerprint_of(unbound);
  std::stringstream buffer;
  write_trace(buffer, unbound);
  EXPECT_EQ(fp, fingerprint_of(read_trace(buffer)));
  // Binding produces a different instance (costed comm), so its
  // fingerprint legitimately differs from the unbound one.
  EXPECT_FALSE(fp ==
               fingerprint_of(bind(unbound, machine_from_name("paper"))));
}

TEST(Fingerprint, DistinctInstancesNeverCollideAcrossCorpus) {
  Rng rng(1004);
  std::map<std::string, int> seen;  // hex fingerprint -> corpus index
  int corpus = 0;
  auto check = [&](const Instance& inst) {
    const std::string hex = fingerprint_of(inst).to_hex();
    const auto [it, inserted] = seen.emplace(hex, corpus);
    EXPECT_TRUE(inserted) << "fingerprint collision between corpus entries "
                          << it->second << " and " << corpus << ": " << hex;
    ++corpus;
  };

  for (int round = 0; round < 150; ++round) {
    const Instance inst = random_annotated_instance(
        rng, 1 + rng.index(40), 1 + rng.index(4), round % 3 != 0);
    check(inst);

    // Single-field perturbations of the instance just added: each must
    // move the fingerprint (they are value-distinct workloads).
    std::vector<Task> tasks(inst.tasks());
    const std::size_t victim = rng.index(tasks.size());
    switch (round % 5) {
      case 0: tasks[victim].comm += 1e-9; break;
      case 1: tasks[victim].comp += 1e-9; break;
      case 2: tasks[victim].mem += 1e-9; break;
      case 3:
        tasks[victim].comm_bytes =
            tasks[victim].has_comm_bytes() ? tasks[victim].comm_bytes + 1.0
                                           : 512.0;
        break;
      default:
        tasks[victim].channel = static_cast<ChannelId>(
            (tasks[victim].channel + 1) % kMaxChannels);
        break;
    }
    check(Instance(std::move(tasks)));
  }
}

TEST(Fingerprint, ZeroSignsAndTaskCountFoldCleanly) {
  // -0.0 and +0.0 durations are the same workload.
  Instance pos({Task{.comm = 0.0, .comp = 1.0, .mem = 0.0}});
  Instance neg({Task{.comm = -0.0, .comp = 1.0, .mem = -0.0}});
  EXPECT_EQ(fingerprint_of(pos), fingerprint_of(neg));
  // An empty instance and a one-zero-task instance are different.
  EXPECT_FALSE(fingerprint_of(Instance{}) ==
               fingerprint_of(Instance({Task{}})));
}

TEST(CanonicalInstance, OrderTranslationRoundTrips) {
  Rng rng(1005);
  for (int round = 0; round < 30; ++round) {
    const Instance inst = random_annotated_instance(rng, 2 + rng.index(20), 2,
                                                    true);
    const CanonicalInstance canon(inst);
    std::vector<TaskId> order(inst.size());
    std::iota(order.begin(), order.end(), TaskId{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    EXPECT_EQ(canon.to_request_order(canon.to_canonical_order(order)), order);
    for (TaskId slot = 0; slot < inst.size(); ++slot) {
      EXPECT_EQ(canon.canonical_slot(canon.request_id(slot)), slot);
    }
  }
  const CanonicalInstance canon(random_annotated_instance(rng, 5, 1, false));
  EXPECT_THROW((void)canon.to_request_order({0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)canon.to_request_order({0, 1, 2, 3, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)canon.to_canonical_order({0, 1, 2, 3, 9}),
               std::invalid_argument);
}

TEST(CanonicalInstance, SlotValuesAgreeAcrossPermutations) {
  // Canonical slot k carries the same task values in every permutation of
  // one workload — the property that makes cached orders portable.
  Rng rng(1006);
  const Instance inst = random_annotated_instance(rng, 24, 3, true);
  const Instance perm = shuffled(inst, rng);
  const CanonicalInstance ca(inst);
  const CanonicalInstance cb(perm);
  ASSERT_EQ(ca.size(), cb.size());
  for (TaskId slot = 0; slot < ca.size(); ++slot) {
    const Task& a = inst[ca.request_id(slot)];
    const Task& b = perm[cb.request_id(slot)];
    EXPECT_EQ(a.comm, b.comm);
    EXPECT_EQ(a.comp, b.comp);
    EXPECT_EQ(a.mem, b.mem);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  }
}

/// The end-to-end portability property: a bytes-only workload served per
/// machine from the cache equals a fresh dts::solve() on the bound
/// instance bit for bit — winner, makespan, order and every start time.
TEST(Fingerprint, CachedOrderRecostedPerMachineEqualsFreshSolve) {
  std::vector<Task> tasks;
  Rng rng(1007);
  for (int i = 0; i < 14; ++i) {
    Task t;
    t.comm = kUnboundTime;
    t.comm_bytes = rng.uniform(1e5, 5e8);
    t.comp = rng.uniform(0.0005, 0.05);
    t.mem = t.comm_bytes;
    tasks.push_back(t);
  }
  const Instance workload{std::move(tasks)};

  SolverService service(ServiceOptions{.workers = 2, .default_solver = "auto"});
  for (const char* machine : {"paper", "cascade", "nvlink"}) {
    const Instance bound = bind(workload, machine_from_name(machine));
    const Mem capacity = 1.5 * bound.min_capacity();
    SolveOptions options;
    options.compute_bounds = false;
    const SolveResult fresh =
        solve(SolveRequest{.instance = bound, .capacity = capacity}, "auto",
              options);

    ServiceRequest request;
    request.instance = workload;
    request.capacity = capacity;
    request.machine = machine;
    for (int pass = 0; pass < 2; ++pass) {
      const ServiceResponse response = service.handle(request);
      ASSERT_EQ(response.status, WireResponse::Status::kOk) << response.error;
      EXPECT_EQ(response.cache, pass == 0
                                    ? WireResponse::CacheOutcome::kMiss
                                    : WireResponse::CacheOutcome::kHit);
      EXPECT_EQ(response.winner, fresh.winner);
      EXPECT_EQ(response.makespan, fresh.makespan);  // exact, not approx
      EXPECT_EQ(response.order, fresh.schedule.comm_order());
      ASSERT_EQ(response.schedule.size(), fresh.schedule.size());
      for (TaskId id = 0; id < fresh.schedule.size(); ++id) {
        EXPECT_EQ(response.schedule[id].comm_start,
                  fresh.schedule[id].comm_start);
        EXPECT_EQ(response.schedule[id].comp_start,
                  fresh.schedule[id].comp_start);
      }
    }
  }
  // One workload, three machines: three distinct cache entries.
  EXPECT_EQ(service.counters().cache.inserts, 3u);
  EXPECT_EQ(service.counters().cache.hits, 3u);
}

/// A permuted submission of a cached workload hits the same entry, and
/// the re-costed schedule is exactly the simulation of the translated
/// order on the permuted bound instance (and therefore feasible).
TEST(Fingerprint, PermutedSubmissionHitsAndRecostsConsistently) {
  Rng rng(1008);
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) {
    Task t;
    t.comm = kUnboundTime;
    t.comm_bytes = rng.uniform(1e5, 5e8);
    t.comp = rng.uniform(0.0005, 0.05);
    t.mem = t.comm_bytes;
    tasks.push_back(t);
  }
  const Instance workload{std::move(tasks)};
  const Instance permuted = shuffled(workload, rng);

  SolverService service(ServiceOptions{.workers = 2});
  ServiceRequest request;
  request.instance = workload;
  request.capacity_factor = 1.4;
  request.machine = "nvlink";
  const ServiceResponse cold = service.handle(request);
  ASSERT_EQ(cold.status, WireResponse::Status::kOk) << cold.error;
  ASSERT_EQ(cold.cache, WireResponse::CacheOutcome::kMiss);

  request.instance = permuted;
  const ServiceResponse warm = service.handle(request);
  ASSERT_EQ(warm.status, WireResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.cache, WireResponse::CacheOutcome::kHit);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.winner, cold.winner);

  const Instance bound = bind(permuted, machine_from_name("nvlink"));
  const Mem capacity = 1.4 * bound.min_capacity();
  const Schedule replay = simulate_order(bound, warm.order, capacity);
  ASSERT_EQ(replay.size(), warm.schedule.size());
  for (TaskId id = 0; id < replay.size(); ++id) {
    EXPECT_EQ(replay[id].comm_start, warm.schedule[id].comm_start);
    EXPECT_EQ(replay[id].comp_start, warm.schedule[id].comp_start);
  }
  EXPECT_TRUE(testing::feasible(bound, replay, capacity));
}

// ------------------------------------------------------ dependency edges

/// A 6-task CCSD-DAG chain (one contraction chain plus its write-back),
/// whose edge-free twin once shared its cache entry.
Instance twin_chain() {
  TraceConfig config;
  config.seed = 1;
  config.min_tasks = 6;
  config.max_tasks = 6;
  return generate_ccsd_dag_trace(config);
}

TEST(Fingerprint, EdgeFreeInstancesKeepTheirPreEdgeHash) {
  // Pinned before edges joined the hash: cache keys of edge-free
  // workloads (the paper's model) must not move.
  TraceConfig config;
  config.seed = 42;
  config.min_tasks = 24;
  config.max_tasks = 24;
  config.machine = MachineModel::duplex_pcie();
  EXPECT_EQ(fingerprint_of(generate_trace(ChemistryKernel::kCoupledClusterSD,
                                          config))
                .to_hex(),
            "052faba48d8612d388964cc55c85e480");
  EXPECT_EQ(fingerprint_of(twin_chain().without_dependencies()).to_hex(),
            "b7f9edaa4ef08553ae76b84a93330239");
}

TEST(Fingerprint, EdgesJoinTheHashThroughCanonicalSlots) {
  const Instance chain = twin_chain();
  ASSERT_TRUE(chain.has_dependencies());
  const Fingerprint fp = fingerprint_of(chain);
  EXPECT_NE(fp, fingerprint_of(chain.without_dependencies()));
  EXPECT_EQ(fp, CanonicalInstance(chain).fingerprint());

  // Relabeling a DAG of distinct tasks keeps its fingerprint: edges hash
  // as canonical slots, not request ids.
  std::vector<TaskId> perm{3, 0, 5, 1, 4, 2};  // new position -> old id
  std::vector<TaskId> where(perm.size());
  for (TaskId k = 0; k < perm.size(); ++k) where[perm[k]] = k;
  std::vector<Task> relabeled;
  for (const TaskId old : perm) {
    Task t = chain[old];
    for (TaskId& dep : t.deps) dep = where[dep];
    relabeled.push_back(t);
  }
  EXPECT_EQ(fp, fingerprint_of(Instance(std::move(relabeled))));

  // Moving one edge to another predecessor changes it.
  std::vector<Task> moved(chain.begin(), chain.end());
  ASSERT_EQ(moved[2].deps, std::vector<TaskId>{1});
  moved[2].deps = {0};
  EXPECT_NE(fp, fingerprint_of(Instance(std::move(moved))));
}

ServiceRequest twin_request(const Instance& inst) {
  ServiceRequest request;
  request.instance = inst;
  request.solver = "SCMR";
  request.capacity_factor = 1.5;
  return request;
}

TEST(ServiceCache, EdgeFreeTwinAfterItsChainSolvesCold) {
  // Before edges were hashed the twin hit the chain's entry and answered
  // the chain's makespan (5.8718) instead of its own (5.4510).
  const Instance chain = twin_chain();
  const Instance free = chain.without_dependencies();
  SolverService service(ServiceOptions{.workers = 1});
  const ServiceResponse first = service.handle(twin_request(chain));
  ASSERT_EQ(first.status, WireResponse::Status::kOk) << first.error;
  EXPECT_NEAR(first.makespan, 5.8718, 5e-5);

  const ServiceResponse second = service.handle(twin_request(free));
  ASSERT_EQ(second.status, WireResponse::Status::kOk) << second.error;
  EXPECT_EQ(second.cache, WireResponse::CacheOutcome::kMiss);
  EXPECT_NEAR(second.makespan, 5.4510, 5e-5);
  SolverService cold_service(ServiceOptions{.workers = 1});
  EXPECT_EQ(second.makespan,
            cold_service.handle(twin_request(free)).makespan);
}

TEST(ServiceCache, ChainAfterItsEdgeFreeTwinIsScheduledLegally) {
  // Before edges were hashed the chain hit the twin's entry, whose order
  // issues a task before its predecessor: the request failed with
  // "execute_order: task 3 issued before its predecessor 2".
  const Instance chain = twin_chain();
  SolverService service(ServiceOptions{.workers = 1});
  const ServiceResponse first =
      service.handle(twin_request(chain.without_dependencies()));
  ASSERT_EQ(first.status, WireResponse::Status::kOk) << first.error;

  const ServiceResponse second = service.handle(twin_request(chain));
  ASSERT_EQ(second.status, WireResponse::Status::kOk) << second.error;
  EXPECT_EQ(second.cache, WireResponse::CacheOutcome::kMiss);
  EXPECT_NEAR(second.makespan, 5.8718, 5e-5);
  EXPECT_TRUE(chain.is_topological_order(second.order));
}

}  // namespace
}  // namespace dts
