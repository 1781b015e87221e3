"""Statistics for perfbench: end-to-end metrics from a run's raw record,
per-layer metrics from its spans.

The C++ driver (perfbench/src) only measures; everything here is a pure
function of what it wrote, so the rules are testable on their own
(perfbench/test_metrics.py).
"""

import math
import statistics
from dataclasses import dataclass

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

# The candidates `auto` runs, in its display order.
CANDIDATES = ["OS", "OOSIM", "IOCMS", "DOCPS", "IOCCS", "DOCCS", "GG", "BP",
              "LCMR", "SCMR", "MAMR", "OOLCMR", "OOSCMR", "OOMAMR"]
# Candidates that pick the next task at run time (dynamic and corrected
# heuristics); the rest sort once.
DYNAMIC_CANDIDATES = {"LCMR", "SCMR", "MAMR", "OOLCMR", "OOSCMR", "OOMAMR"}


def tail_percentile(values, beyond=TAIL_BEYOND):
    """Highest nearest-rank percentile with at least `beyond` samples
    above it: returns (percentile, value). With n samples that is rank
    n - beyond, i.e. percentile 100 * (n - beyond) / n."""
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1]


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    if len(xs) != len(ys) or len(set(xs)) < 2:
        raise ValueError("need points at two or more distinct x")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / sxx


@dataclass
class Span:
    id: int
    parent: int
    request: int
    name: str
    start_ns: int
    end_ns: int
    tag: str = ""

    @property
    def seconds(self):
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def side(self):
        return "side" in self.tag.split(";")

    def attr(self, key):
        for part in self.tag.split(";"):
            if part.startswith(key + "="):
                return part[len(key) + 1:]
        return None


def read_spans(path):
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            spans.append(Span(int(fields[0]), int(fields[1]), int(fields[2]),
                              fields[3], int(fields[4]), int(fields[5]),
                              fields[6] if len(fields) > 6 else ""))
    return spans


def self_times(spans):
    """Span id -> self time in seconds: the span's duration minus the part
    of its interval that its child spans cover (overlapping children are
    counted once)."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        intervals = sorted((max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns))
                           for c in children.get(s.id, []))
        covered = 0
        cur_start = cur_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end_ns - s.start_ns - covered) / 1e9
    return out


def request_latencies(spans):
    """(latency seconds, tag) per "request" root span, less the time of its
    side calls (spans tagged "side" that only the traced run makes)."""
    side = {}
    for s in spans:
        if s.side and s.parent:
            side[s.parent] = side.get(s.parent, 0.0) + s.seconds
    return [(s.seconds - side.get(s.id, 0.0), s.tag)
            for s in spans if s.name == "request" and s.parent == 0]


def end_to_end(raw):
    """The end-to-end metrics of an untraced timed pass: name -> (value,
    unit), plus the tail percentile and its sample count for display."""
    timed = raw["timed"]
    lat = timed["latencies_s"]
    pct, tail = tail_percentile(lat)
    attempted = timed["attempted"]
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "throughput_rps": (attempted / timed["wall_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "makespan_ratio": (timed["makespan_ratio"], "ratio"),
        "success_rate": ((attempted - timed["failed"]) / attempted, "ratio"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": pct, "samples": len(lat)}


# --------------------------------------------------------------- per layer

class Pass:
    """One traced pass: its spans, their self times and its exact counts."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = counts
        self.self = self_times(spans)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_of(self, name):
        return [self.self[s.id] for s in self.named(name)]


def _median_ms(p, name):
    v = p.self_of(name)
    return statistics.median(v) * 1e3 if v else None


def _mean_ms(p, name):
    v = p.self_of(name)
    return sum(v) / len(v) * 1e3 if v else None


def _parse_mb_per_s(p):
    spans = p.named("trace.parse")
    if not spans:
        return None
    mb = sum(int(s.attr("bytes")) for s in spans) / 1e6
    return mb / sum(p.self[s.id] for s in spans)


def _evaluate_order_us(p):
    per_eval = [p.self[s.id] / int(s.attr("evals")) * 1e6
                for s in p.named("core.evaluate_order")]
    return statistics.median(per_eval) if per_eval else None


def _evals_per_s(p):
    spans = [s for s in p.spans if s.name.startswith("solve.")]
    if not spans:
        return None
    return (sum(int(s.attr("evals")) for s in spans)
            / sum(p.self[s.id] for s in spans))


def _auto_overhead_ms(p):
    auto = _mean_ms(p, "solve.auto")
    parts = [_mean_ms(p, "heuristics." + c) for c in CANDIDATES]
    if auto is None or None in parts:
        return None
    return auto - sum(parts)


def _dynamic_share(p):
    total = dynamic = 0.0
    for c in CANDIDATES:
        t = sum(p.self_of("heuristics." + c))
        total += t
        if c in DYNAMIC_CANDIDATES:
            dynamic += t
    return dynamic / total if total > 0 else None


def _auto_slope(p):
    spans = p.named("solve.auto")
    xs = [int(s.attr("n")) for s in spans]
    if len(set(xs)) < 2:
        return None
    return loglog_slope(xs, [p.self[s.id] for s in spans])


def _search_ms(p, dag):
    v = [p.self[s.id] for s in p.named("solve.local-search")
         if (s.attr("kernel") == "CCSD-DAG") == dag]
    return sum(v) / len(v) * 1e3 if v else None


def _dag_slowdown(p):
    dag, flat = _search_ms(p, True), _search_ms(p, False)
    return dag / flat if dag and flat else None


def _exact_sum(p, prefix):
    spans = [s for s in p.spans if s.name == "solve." + prefix
             or s.name.startswith("solve." + prefix + ":")]
    return sum(int(s.attr("evals")) for s in spans) if spans else None


def _exact_ms(p, prefix):
    v = [p.self[s.id] for s in p.spans if s.name == "solve." + prefix
         or s.name.startswith("solve." + prefix + ":")]
    return sum(v) / len(v) * 1e3 if v else None


def _latency_p50_ms(p, cache):
    v = [lat for lat, tag in request_latencies(p.spans)
         if tag.startswith("ok;") and f"cache={cache}" in tag.split(";")]
    return statistics.median(v) * 1e3 if v else None


def _from_cache_ratio(p):
    if "service.hits" not in p.counts:
        return None
    hits = p.counts["service.hits"] + p.counts.get("service.coalesced", 0)
    consulting = hits + p.counts["service.solves"]
    return hits / consulting if consulting else None


def _response_kb(p):
    spans = p.named("report.render")
    if not spans:
        return None
    return sum(int(s.attr("bytes")) for s in spans) / len(spans) / 1024.0


def _count(p, name):
    return p.counts.get(name, 0) if "service.hits" in p.counts else None


# name -> (unit, home workload, function of a Pass). A metric comes from
# its home workload: the selected workload's traced pass when it is home,
# else the reduced pass of home that every traced run also makes. Layers
# every request crosses (SHARED) come from the selected workload whenever
# it reaches them.
LAYER_METRICS = {
    "trace.parse_ms": ("ms", "solve-large",
                       lambda p: _median_ms(p, "trace.parse")),
    "trace.parse_mb_per_s": ("MB/s", "solve-large", _parse_mb_per_s),
    "model.bind_ms": ("ms", "solve-large",
                      lambda p: _median_ms(p, "model.bind")),
    "core.compile_ms": ("ms", "solve-large",
                        lambda p: _median_ms(p, "core.compile")),
    "core.bounds_ms": ("ms", "solve-large",
                       lambda p: _median_ms(p, "core.bounds")),
    "core.validate_ms": ("ms", "solve-large",
                         lambda p: _median_ms(p, "core.validate")),
    "core.evaluate_order_us": ("us", "solve-search", _evaluate_order_us),
    "core.evals_per_s": ("1/s", "solve-search", _evals_per_s),
}
for _c in CANDIDATES:
    LAYER_METRICS[f"heuristics.{_c}_ms"] = (
        "ms", "solve-large", lambda p, c=_c: _mean_ms(p, "heuristics." + c))
LAYER_METRICS.update({
    "heuristics.auto_overhead_ms": ("ms", "solve-large", _auto_overhead_ms),
    "heuristics.dynamic_share": ("ratio", "solve-large", _dynamic_share),
    "heuristics.slope": ("ratio", "solve-large", _auto_slope),
    "search.ms_independent": ("ms", "solve-search",
                              lambda p: _search_ms(p, False)),
    "search.ms_dag": ("ms", "solve-search", lambda p: _search_ms(p, True)),
    "search.dag_slowdown": ("ratio", "solve-search", _dag_slowdown),
    "exact.bb_nodes": ("count", "solve-search",
                       lambda p: _exact_sum(p, "branch-bound")),
    "exact.bb_ms": ("ms", "solve-search",
                    lambda p: _exact_ms(p, "branch-bound")),
    "exact.exhaustive_ms": ("ms", "solve-search",
                            lambda p: _exact_ms(p, "exhaustive")),
    "milp.evaluations": ("count", "solve-search",
                         lambda p: _exact_sum(p, "milp")),
    "milp.ms": ("ms", "solve-search", lambda p: _exact_ms(p, "milp")),
    "protocol.read_ms": ("ms", "serve-mixed",
                         lambda p: _median_ms(p, "protocol.read")),
    "protocol.write_ms": ("ms", "serve-mixed",
                          lambda p: _median_ms(p, "protocol.write")),
    "service.fingerprint_ms": ("ms", "serve-mixed",
                               lambda p: _median_ms(p, "service.fingerprint")),
    "service.hit_latency_p50_ms": ("ms", "serve-mixed",
                                   lambda p: _latency_p50_ms(p, "hit")),
    "service.miss_latency_p50_ms": ("ms", "serve-mixed",
                                    lambda p: _latency_p50_ms(p, "miss")),
    "service.solves": ("count", "serve-mixed",
                       lambda p: _count(p, "service.solves")),
    "service.from_cache_ratio": ("ratio", "serve-mixed", _from_cache_ratio),
    "service.mismatches": ("count", "serve-mixed",
                           lambda p: _count(p, "service.mismatches")),
    "report.render_ms": ("ms", "serve-mixed",
                         lambda p: _median_ms(p, "report.render")),
    "report.response_kb": ("KB", "serve-mixed", _response_kb),
})


SHARED = {"trace.parse_ms", "trace.parse_mb_per_s", "model.bind_ms",
          "core.compile_ms", "core.bounds_ms", "core.validate_ms",
          "core.evaluate_order_us"}


def per_layer(selected, passes, untraced_p50_ms):
    """Per-layer metrics: name -> (value, unit, source workload).
    `passes` maps workload -> Pass (the selected one full-size, the others
    reduced)."""
    out = {}
    for name, (unit, home, fn) in LAYER_METRICS.items():
        sources = [selected, home] if name in SHARED else [home]
        for source in dict.fromkeys(sources):
            value = fn(passes[source]) if source in passes else None
            if value is not None:
                out[name] = (value, unit, source)
                break
        else:
            raise ValueError(f"no spans for per-layer metric {name}")
    traced = [lat for lat, _ in request_latencies(passes[selected].spans)]
    out["tracing.overhead_ms"] = (
        statistics.median(traced) * 1e3 - untraced_p50_ms, "ms", selected)
    return out
