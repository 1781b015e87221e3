// The serve-mixed workload: dts1 wire frames through
// SolverService::handle_wire, from closed-loop client threads. A request
// is
//
//   frame bytes -> read_request -> handle_wire -> write_response
//               -> read_response (the client decodes its reply)
//
// Every reply is compared, after the clock stops, with a cold dts::solve()
// of the same request computed before set-up.

#include <bit>
#include <cmath>
#include <exception>
#include <latch>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "exact/lower_bounds.hpp"
#include "harness.hpp"
#include "model/machine.hpp"
#include "service/fingerprint.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

using dts::WireResponse;

/// Every field of a solve reply that a warm answer must reproduce.
std::uint64_t reply_digest(const std::string& winner, double makespan,
                           std::uint64_t evaluations, bool proved_optimal,
                           double lower_bound,
                           const std::vector<std::uint32_t>& order,
                           const std::vector<std::pair<double, double>>& times) {
  std::uint64_t h = fnv1a(winner);
  h = mix(h, std::bit_cast<std::uint64_t>(makespan));
  h = mix(h, evaluations);
  h = mix(h, proved_optimal ? 1 : 0);
  h = mix(h, std::bit_cast<std::uint64_t>(lower_bound));
  for (const std::uint32_t id : order) h = mix(h, id);
  for (const auto& [comm, comp] : times) {
    h = mix(h, std::bit_cast<std::uint64_t>(comm));
    h = mix(h, std::bit_cast<std::uint64_t>(comp));
  }
  return h;
}

/// The cold library answer to one frame.
struct Expected {
  bool ok = false;  ///< the library solves it (else it must be an error)
  std::uint64_t digest = 0;
  double omim = 0.0;  ///< for the makespan ratio
};

Expected cold_reference(const ServeFrame& f) {
  Expected e;
  std::istringstream in(f.trace_text);
  dts::SolveRequest request;
  request.instance = dts::read_trace(in);
  const dts::Instance bound =
      f.machine.empty()
          ? request.instance
          : dts::bind(request.instance, dts::machine_from_name(f.machine));
  request.capacity = f.capacity_factor * bound.min_capacity();
  if (!f.machine.empty()) request.machine = f.machine;
  try {
    const dts::SolveResult r = dts::solve(request, f.solver);
    std::vector<std::uint32_t> order;
    for (const dts::TaskId id : r.schedule.comm_order()) {
      order.push_back(static_cast<std::uint32_t>(id));
    }
    std::vector<std::pair<double, double>> times;
    for (const dts::TaskTimes& t : r.schedule.times()) {
      times.emplace_back(t.comm_start, t.comp_start);
    }
    e.ok = true;
    e.digest = reply_digest(r.winner, r.makespan, r.evaluations,
                            r.proved_optimal, r.lower_bound, order, times);
    e.omim = r.bounds.omim;
  } catch (const std::exception&) {
    e.ok = false;
  }
  return e;
}

/// One served request, as the client saw it.
struct Reply {
  double latency_s = 0.0;
  WireResponse::Status status = WireResponse::Status::kError;
  WireResponse::CacheOutcome cache = WireResponse::CacheOutcome::kMiss;
  double makespan = 0.0;
  std::uint64_t digest = 0;
};

Reply serve_one(dts::SolverService& service, const ServeFrame& f,
                Tracer* tracer) {
  Reply reply;
  const std::uint64_t id = tracer != nullptr ? tracer->next_id() : 0;
  Span root(tracer, "request", id);
  const Clock::time_point t0 = Clock::now();
  try {
    std::istringstream in(f.frame);
    std::optional<dts::WireRequest> request;
    {
      Span span(tracer, "protocol.read", id, root.id());
      request = dts::read_request(in);
    }
    if (!request) throw std::runtime_error("empty request frame");
    if (tracer != nullptr) {
      // handle_wire parses, binds and fingerprints internally; these side
      // calls repeat each step on its own so it gets a span. metrics.py
      // subtracts spans tagged "side" from the request's latency.
      dts::Instance inst;
      {
        Span span(tracer, "trace.parse", id, root.id());
        span.tag("side;bytes=" + std::to_string(request->trace_text.size()));
        std::istringstream text(request->trace_text);
        inst = dts::read_trace(text);
      }
      if (!request->machine.empty()) {
        Span span(tracer, "model.bind", id, root.id());
        span.tag("side");
        (void)dts::bind(inst, dts::machine_from_name(request->machine));
      }
      {
        Span span(tracer, "service.fingerprint", id, root.id());
        span.tag("side");
        (void)dts::CanonicalInstance(inst);
      }
    }
    WireResponse response;
    {
      Span span(tracer, "service.handle", id, root.id());
      response = service.handle_wire(*request);
    }
    std::string bytes;
    {
      Span span(tracer, "report.render", id, root.id());
      std::ostringstream out;
      dts::write_response(out, response);
      bytes = out.str();
      span.tag("bytes=" + std::to_string(bytes.size()));
    }
    std::optional<WireResponse> decoded;
    {
      Span span(tracer, "protocol.write", id, root.id());
      std::istringstream back(bytes);
      decoded = dts::read_response(back);
    }
    if (!decoded) throw std::runtime_error("empty response frame");
    reply.latency_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    reply.status = decoded->status;
    reply.cache = decoded->cache;
    reply.makespan = decoded->makespan;
    reply.digest = reply_digest(decoded->winner, decoded->makespan,
                                decoded->evaluations, decoded->proved_optimal,
                                decoded->lower_bound, decoded->order,
                                decoded->schedule);
  } catch (const std::exception&) {
    // A broken frame on either leg is a failed request, never a crash.
    reply.latency_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    reply.status = WireResponse::Status::kError;
  }
  root.tag(dts::to_string(reply.status) + ";cache=" +
           dts::to_string(reply.cache) + ";kind=" + to_string(f.kind));
  return reply;
}

std::unique_ptr<dts::SolverService> make_service() {
  dts::ServiceOptions options;
  options.workers = kServeWorkers;
  return std::make_unique<dts::SolverService>(options);
}

class ServeRunner {
 public:
  explicit ServeRunner(const ServeCorpus& corpus) : corpus_(corpus) {
    expected_.reserve(corpus.frames.size());
    for (const ServeFrame& f : corpus.frames) {
      expected_.push_back(cold_reference(f));
    }
  }

  /// The cold cache-fill pass: one client, every set-up frame in order.
  void fill(dts::SolverService& service, PassStats& pass) {
    for (const std::size_t i : corpus_.fill) {
      score(i, serve_one(service, corpus_.frames[i], nullptr), pass);
    }
  }

  /// The timed list, one thread per client.
  PassStats serve(dts::SolverService& service, Tracer* tracer) {
    const dts::ServiceCounters before = service.counters();
    std::vector<std::vector<Reply>> replies(corpus_.per_client.size());
    std::latch start(static_cast<std::ptrdiff_t>(replies.size()) + 1);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < replies.size(); ++c) {
      clients.emplace_back([&, c] {
        replies[c].reserve(corpus_.per_client[c].size());
        start.arrive_and_wait();
        for (const std::size_t i : corpus_.per_client[c]) {
          replies[c].push_back(serve_one(service, corpus_.frames[i], tracer));
        }
      });
    }
    start.arrive_and_wait();
    const Clock::time_point t0 = Clock::now();
    for (std::thread& t : clients) t.join();
    PassStats pass;
    pass.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

    // Checks and bookkeeping, after the clock stopped. Requests are
    // scored client by client so the digest does not depend on how the
    // two clients interleaved.
    for (std::size_t c = 0; c < replies.size(); ++c) {
      for (std::size_t k = 0; k < replies[c].size(); ++k) {
        const Reply& r = replies[c][k];
        pass.latencies_s.push_back(r.latency_s);
        score(corpus_.per_client[c][k], r, pass);
      }
    }
    const dts::ServiceCounters after = service.counters();
    pass.counts["service.hits"] = after.cache.hits - before.cache.hits;
    pass.counts["service.solves"] = after.cache.misses - before.cache.misses;
    pass.counts["service.coalesced"] =
        after.cache.coalesced - before.cache.coalesced;
    return pass;
  }

 private:
  void score(std::size_t frame, const Reply& r, PassStats& pass) const {
    const ServeFrame& f = corpus_.frames[frame];
    const Expected& e = expected_[frame];
    const std::string kind = to_string(f.kind);
    ++pass.attempted;
    ++pass.counts["requests." + kind];
    pass.digest = mix(pass.digest, static_cast<std::uint64_t>(r.status));
    pass.digest = mix(pass.digest, static_cast<std::uint64_t>(r.cache));
    pass.digest = mix(pass.digest, r.digest);
    const bool ok = r.status == WireResponse::Status::kOk;
    if (ok && e.ok) {
      pass.log_ratio_sum += std::log(r.makespan / e.omim);
      ++pass.ratio_count;
    }
    if (!ok) ++pass.counts["errors." + kind];
    if (ok != e.ok || (ok && r.digest != e.digest)) {
      ++pass.counts["service.mismatches"];
      ++pass.counts["mismatches." + kind];
    }
    if (!ok || r.digest != e.digest) ++pass.failed;
  }

  const ServeCorpus& corpus_;
  std::vector<Expected> expected_;
};

}  // namespace

WorkloadRun run_serve_workload(const ServeCorpus& corpus,
                               const RunOptions& options) {
  WorkloadRun run;
  for (const ServeFrame& f : corpus.frames) {
    run.request_digest = fnv1a(f.frame, run.request_digest);
  }
  for (const std::vector<std::size_t>& list : corpus.per_client) {
    for (const std::size_t i : list) {
      run.request_digest = mix(run.request_digest, i);
    }
  }
  ServeRunner runner(corpus);

  // Set-up: build the service and fill its cache, repeated so that the
  // median is stable. Every fill must leave identical answers.
  std::unique_ptr<dts::SolverService> service;
  std::optional<std::uint64_t> fill_digest;
  const auto set_up = [&] {
    service.reset();
    PassStats fill;
    const Clock::time_point t0 = Clock::now();
    service = make_service();
    runner.fill(*service, fill);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (fill_digest && *fill_digest != fill.digest) {
      run.nondeterministic = true;
      run.notes.push_back("two cache-fill passes gave different answers");
    }
    if (!fill_digest) {
      run.notes.push_back(
          "set-up fill: " + std::to_string(fill.attempted) + " requests, " +
          std::to_string(fill.counts["service.mismatches"]) +
          " differ from a cold solve");
    }
    fill_digest = fill.digest;
    return seconds;
  };
  for (std::size_t r = 0; r < options.setup_repetitions; ++r) {
    run.setup_s.push_back(set_up());
  }
  if (options.timed_pass) run.timed = runner.serve(*service, nullptr);
  if (options.tracer != nullptr) {
    (void)set_up();  // a fresh cache, so the traced pass misses alike
    run.traced = runner.serve(*service, options.tracer);
  }
  return run;
}

}  // namespace perfbench
