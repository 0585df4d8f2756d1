"""skynav benchmark: one closed-loop client, one thread, one process.

    python3 perfbench/run.py --workload drrt_city --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; skynav is imported from its ``src``
directory and nowhere else.  The client sends a request, waits for the
route, checks it, and sends the next.  It runs the workload's fixed pool in
whole rounds for about ``--seconds`` (at least one round).  Times are taken
at a reference machine speed (see ProbedClock), each request's latency is
the median of its runs, and the metrics are medians and tails over the
pool's requests.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
request of the pool once untraced and once with counting timers around
skynav's public entry points, prints the per-layer metrics, and writes the
spans to ``.bench_out/``.  The line before the result carries the details: machine,
thread settings, tail percentile and sample count, and the path digest.
"""
from __future__ import annotations

import os
import sys

# numpy links a multi-threaded OpenBLAS; pin every BLAS/OpenMP pool to one
# thread before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from routecheck import route_digest  # noqa: E402
from tracer import NEVER_CALLED, Tracer, leftover_wrappers  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
TRACE_DIR = CHECKOUT / ".bench_out"

SETUP_REPEATS = 9
TAIL_BEYOND = 10
# Times are reported at a reference machine speed; see ProbedClock.  The
# probe is a fixed loop that runs no skynav code; REF_PROBE_S is its time on
# a 2-core Xeon VM in its fast state.
PROBE_ITERS = 150
PROBE_PERIOD_S = 0.02
BRACKET_BEST_OF = 3
REF_PROBE_S = 350e-6
_PROBE_ARRAY = np.arange(3.0)

END_TO_END = (
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("route_len_m", "m"),
    ("sharp_turns", "count"),
)

PER_LAYER = (
    ("env.segment_collides.calls", "count"),
    ("env.segment_collides.us_per_call", "us"),
    ("env.segment_collides.hit_ratio", "ratio"),
    ("env.clearance.calls", "count"),
    ("env.clearance.us_per_call", "us"),
    ("env.point_free.calls", "count"),
    ("env.point_free.us_per_call", "us"),
    ("env.self_share", "ratio"),
    ("core.nearest.calls", "count"),
    ("core.nearest.us_per_call", "us"),
    ("core.nearest.mean_tree_nodes", "count"),
    ("core.tree_nodes", "count"),
    ("core.steer.us_per_call", "us"),
    ("core.sample_with_bias.us_per_call", "us"),
    ("rrt.plan_ms", "ms"),
    ("rrt.us_per_extension", "us"),
    ("rrt.self_us_per_extension", "us"),
    ("rrt.accept_ratio", "ratio"),
    ("drrt.plan_ms", "ms"),
    ("drrt.us_per_extension", "us"),
    ("drrt.self_us_per_extension", "us"),
    ("drrt.accept_ratio", "ratio"),
    ("drrt.detour.calls", "count"),
    ("drrt.detour.rescue_ratio", "ratio"),
    ("drrt.step.far_ratio", "ratio"),
    ("drrt.step.collided_ratio", "ratio"),
    ("drrt.step.neutral_ratio", "ratio"),
    ("smoothing.smooth_ms", "ms"),
    ("smoothing.sample_curve_ms", "ms"),
    ("smoothing.check_ms", "ms"),
    ("smoothing.samples", "count"),
    ("smoothing.fallback_ratio", "ratio"),
    ("baselines.voxelize_s", "s"),
    ("baselines.legal_moves_build_s", "s"),
    ("baselines.move_table_mb", "MB"),
    ("baselines.astar.plan_ms", "ms"),
    ("baselines.astar.pops", "count"),
    ("baselines.astar.us_per_pop", "us"),
    ("baselines.aco.plan_ms", "ms"),
    ("baselines.aco.cells", "count"),
    ("baselines.aco.us_per_cell", "us"),
    ("metrics.summarize.us_per_call", "us"),
    ("trace.overhead_share", "ratio"),
)


def import_skynav():
    """Import skynav from this checkout's src directory, or exit with code 2."""
    if not (SRC / "skynav" / "__init__.py").is_file():
        print(f"perfbench: no skynav sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import skynav
    if Path(skynav.__file__).resolve().parent != (SRC / "skynav").resolve():
        print(f"perfbench: imported skynav from {skynav.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return skynav


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def speed_probe() -> float:
    """Seconds for a fixed numpy-and-Python loop that runs no skynav code."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERS):
        b = _PROBE_ARRAY * 1.0001 + i
        acc += float(b @ b)
    return perf_counter() - t0


class ProbedClock:
    """Times a block of work at the reference machine speed.

    A shared 2-core Xeon VM was seen to run the same work up to 1.7x slower
    for seconds to minutes at a time, so raw times of one request spread by
    over 60% between its runs.  Probes taken only before and after a request
    of several seconds miss changes during it, so while the block runs a
    timer signal takes the probe every PROBE_PERIOD_S as well.  The probes
    before and after the block are the best of BRACKET_BEST_OF, as a block
    of a few milliseconds has no other.  A span's time is its wall time less
    the probes taken inside it, times REF_PROBE_S over the mean probe of the
    block.  With ``inflight=False`` (the traced run,
    whose spans must not hold probes) only the bracketing probes are taken.
    """

    def __init__(self, inflight: bool = True):
        self.inflight = inflight
        self.probes = []  # (start, seconds)
        self._old_handler = None

    def _probe(self, *_signal_args, best_of: int = 1) -> None:
        t0 = perf_counter()
        self.probes.append((t0, min(speed_probe() for _ in range(best_of))))

    def __enter__(self):
        self.probes.clear()
        self._probe(best_of=BRACKET_BEST_OF)
        if self.inflight:
            self._old_handler = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.inflight:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self._probe(best_of=BRACKET_BEST_OF)

    def raw(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, less the probes taken in between."""
        return t1 - t0 - sum(d for start, d in self.probes if t0 <= start < t1)

    def ref(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the reference speed."""
        return self.raw(t0, t1) * REF_PROBE_S / statistics.fmean(d for _, d in self.probes)


class Samples:
    """What one or more passes over a pool produced, keyed by pool index."""

    def __init__(self):
        self.latency = defaultdict(list)  # seconds at the reference speed
        self.raw = defaultdict(list)  # seconds as measured
        self.phases = defaultdict(lambda: defaultdict(list))
        self.digests = {}
        self.nondeterministic = set()
        self.violations = {}
        self.quality = {}
        self.attempted = 0
        self.failed = 0  # raised, or returned a route that failed the check
        self.no_route = 0  # answered that it found no route
        self.not_ok = set()  # pool indices with a failed or no-route attempt

    def per_request(self, raw: bool = False) -> list:
        """Each request's median run, in pool order."""
        runs = self.raw if raw else self.latency
        return [statistics.median(v) for _, v in sorted(runs.items()) if v]

    def digest(self) -> str:
        """sha256 over every request's route digest, in pool order."""
        h = hashlib.sha256()
        for i in sorted(self.digests):
            h.update(self.digests[i].encode())
        return h.hexdigest()


def run_request(sk, wl, r, s: Samples, tracer=None, inflight: bool = True) -> None:
    s.attempted += 1
    clock = ProbedClock(inflight)
    with clock:
        t0 = perf_counter()
        try:
            if tracer is None:
                out = wl.execute(r)
            else:
                with tracer.span("request", r.index):
                    out = wl.execute(r)
        except Exception:  # a raising request is a failed request; the client goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        t1 = perf_counter()
    s.latency[r.index].append(clock.ref(t0, t1))
    s.raw[r.index].append(clock.raw(t0, t1))
    if out is None:
        # its time until the exception counts like any answer's, so a
        # request that gives up by raising cannot shorten the latencies
        s.failed += 1
        s.not_ok.add(r.index)
        return
    for phase, (a, b) in out.phases.items():
        s.phases[phase][r.index].append(clock.ref(a, b))
    digest = route_digest(out.routes)
    if s.digests.setdefault(r.index, digest) != digest:
        s.nondeterministic.add(r.index)
    # every route returned is checked, also when another planner of the same
    # request found none; a successful request must return all its routes
    checker = wl.checkers[r.map_index]
    problems = [p for route in out.routes
                if out.success or (route is not None and len(route))
                for p in checker.violations(route, r.start, r.goal, r.goal_threshold)]
    if problems:
        s.failed += 1
        s.not_ok.add(r.index)
        s.violations[r.index] = problems
        return
    if not out.success:
        s.no_route += 1
        s.not_ok.add(r.index)
        return
    quality = []
    for raw, smoothed in out.flown:
        pm = sk.summarize(raw, smoothed)
        if smoothed is None:
            quality.append((pm.length_m, pm.sharp_turns))
        else:
            quality.append((pm.smoothed_length_m, pm.sharp_turns_smoothed))
    s.quality.setdefault(r.index, quality)


def measure(sk, wl, order, seconds: float, s: Samples) -> int:
    """Closed loop over the pool in the seed's order, in whole rounds: another
    round starts while the mean round so far still fits in `seconds`.
    Returns the number of rounds."""
    rounds = 0
    t0 = perf_counter()
    while True:
        for idx in order:
            run_request(sk, wl, wl.requests[idx], s)
        rounds += 1
        elapsed = perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def set_up(cls, pool_size: int, repeats: int):
    """Build the workload `repeats` times; return the last one and the median
    time at the reference speed."""
    times = []
    wl = None
    for _ in range(repeats):
        wl = None
        gc.collect()
        clock = ProbedClock()
        with clock:
            t0 = perf_counter()
            wl = cls(pool_size)
            t1 = perf_counter()
        times.append(clock.ref(t0, t1))
    return wl, statistics.median(times)


def tail(values: list) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns the value, its percentile and the samples beyond it.  With
    TAIL_BEYOND samples or fewer no percentile qualifies; the maximum is
    returned as the 100th, with none beyond.
    """
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0, 0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(s: Samples, setup_s: float, pool: int) -> dict:
    per_req = s.per_request()
    tail_value, _, _ = tail(per_req)
    flown = [q for i in sorted(s.quality) for q in s.quality[i]]
    return {
        "p50_ms": statistics.median(per_req) * 1e3,
        "tail_ms": tail_value * 1e3,
        "throughput_rps": len(per_req) / sum(per_req),
        "ok_frac": 1.0 - len(s.not_ok) / pool,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "route_len_m": statistics.fmean(q[0] for q in flown) if flown else 0.0,
        "sharp_turns": statistics.fmean(q[1] for q in flown) if flown else 0.0,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr, wl, requests: int, overhead: float) -> dict:
    """Per-layer metrics from a traced pass; counts are per request unless per call."""
    def st(name):
        return tr.stats.get(name, NEVER_CALLED)

    def us_per_call(name):
        return _ratio(st(name).total, st(name).calls) * 1e6

    def ms_per_call(name):
        return _ratio(st(name).total, st(name).calls) * 1e3

    def per_request(name):
        return st(name).calls / requests

    def edge(parent, child):
        return tr.edges.get((parent, child), (0, 0.0))

    m = {}
    seg = st("env.segment_collides")
    m["env.segment_collides.calls"] = per_request("env.segment_collides")
    m["env.segment_collides.us_per_call"] = us_per_call("env.segment_collides")
    m["env.segment_collides.hit_ratio"] = _ratio(seg.counters["hits"], seg.calls)
    for name in ("env.clearance", "env.point_free"):
        m[f"{name}.calls"] = per_request(name)
        m[f"{name}.us_per_call"] = us_per_call(name)
    env_self = sum(s.self_time for n, s in tr.stats.items() if n.startswith("env."))
    m["env.self_share"] = _ratio(env_self, st("request").total)

    near = st("core.nearest")
    m["core.nearest.calls"] = per_request("core.nearest")
    m["core.nearest.us_per_call"] = us_per_call("core.nearest")
    m["core.nearest.mean_tree_nodes"] = _ratio(near.counters["tree_nodes"], near.calls)
    trees = st("rrt.plan_rrt").calls + st("drrt.plan_drrt").calls
    m["core.tree_nodes"] = _ratio(st("core.add").calls + trees, trees)
    m["core.steer.us_per_call"] = us_per_call("core.steer")
    m["core.sample_with_bias.us_per_call"] = us_per_call("core.sample_with_bias")

    for layer, planner in (("rrt", "rrt.plan_rrt"), ("drrt", "drrt.plan_drrt")):
        p = st(planner)
        ext = p.counters["explored"]
        m[f"{layer}.plan_ms"] = ms_per_call(planner)
        m[f"{layer}.us_per_extension"] = _ratio(p.total, ext) * 1e6
        m[f"{layer}.self_us_per_extension"] = _ratio(p.self_time, ext) * 1e6
        m[f"{layer}.accept_ratio"] = _ratio(edge(planner, "core.add")[0], ext)

    detour = st("drrt.detour_extend")
    m["drrt.detour.calls"] = per_request("drrt.detour_extend")
    m["drrt.detour.rescue_ratio"] = _ratio(detour.counters["rescued"], detour.calls)
    step = st("drrt.classify_step_outcome")
    for outcome in ("far", "collided", "neutral"):
        m[f"drrt.step.{outcome}_ratio"] = _ratio(step.counters[outcome], step.calls)

    smooth = st("smoothing.smooth_path")
    m["smoothing.smooth_ms"] = ms_per_call("smoothing.smooth_path")
    m["smoothing.sample_curve_ms"] = ms_per_call("smoothing.sample_curve")
    m["smoothing.check_ms"] = _ratio(
        edge("smoothing.smooth_path", "env.segment_collides")[1], smooth.calls) * 1e3
    curve = st("smoothing.sample_curve")
    m["smoothing.samples"] = _ratio(curve.counters["samples"], curve.calls)
    m["smoothing.fallback_ratio"] = _ratio(smooth.counters["fallback"], smooth.calls)

    for key in ("voxelize_s", "legal_moves_build_s", "move_table_mb"):
        m[f"baselines.{key}"] = wl.setup_layers.get(key, 0.0)
    for short, planner, unit in (("astar", "baselines.plan_astar", "pop"),
                                 ("aco", "baselines.plan_aco", "cell")):
        p = st(planner)
        work = p.counters["explored"]
        m[f"baselines.{short}.plan_ms"] = ms_per_call(planner)
        m[f"baselines.{short}.{unit}s"] = _ratio(work, p.calls)
        m[f"baselines.{short}.us_per_{unit}"] = _ratio(p.total, work) * 1e6

    m["metrics.summarize.us_per_call"] = us_per_call("metrics.summarize")
    m["trace.overhead_share"] = overhead
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pool_size: int | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result line and the details report."""
    import workloads  # imports skynav, so only after import_skynav()

    sk = sys.modules["skynav"]
    cls = workloads.WORKLOADS[name]
    wl, setup_s = set_up(cls, pool_size or workloads.POOL_SIZES[name], setup_repeats)
    order = np.random.default_rng(seed).permutation(len(wl.requests)).tolist()
    report = {"workload": name, "seed": seed, "trace": int(trace), "machine": machine_info(),
              "requests_in_pool": len(wl.requests)}

    untraced = Samples()
    if not trace:
        rounds = measure(sk, wl, order, seconds, untraced)
        metrics = end_to_end(untraced, setup_s, len(wl.requests))
        units = dict(END_TO_END)
        samples = [untraced]
        raw = untraced.per_request(raw=True)
        raw_tail, pct, beyond = tail(raw)
        report["rounds"] = rounds
        report["tail"] = {"percentile": pct, "beyond": beyond, "requests": len(wl.requests)}
        report["raw"] = {"p50_ms": statistics.median(raw) * 1e3, "tail_ms": raw_tail * 1e3,
                         "throughput_rps": len(raw) / sum(raw)}
    else:
        # each request runs untraced and then traced, back to back, so the
        # overhead compares raw times taken in the same machine state; no
        # probe runs inside either, so spans hold only skynav's own time
        tr = Tracer()
        traced = Samples()
        for idx in order:
            run_request(sk, wl, wl.requests[idx], untraced, inflight=False)
            tr.install()
            try:
                run_request(sk, wl, wl.requests[idx], traced, tr, inflight=False)
            finally:
                tr.restore()
        left = leftover_wrappers()
        base = sum(untraced.per_request(raw=True))
        overhead = (sum(traced.per_request(raw=True)) - base) / base
        metrics = per_layer(tr, wl, len(order), overhead)
        units = dict(PER_LAYER)
        samples = [untraced, traced]
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{name}-seed{seed}.json"
        tr.write(trace_file)
        report.update({"traced_digest": traced.digest(), "wrappers_left": left,
                       "spans_kept": sum(1 for x in tr.spans if x),
                       "spans_total": tr.spans_total,
                       "trace_file": str(trace_file.relative_to(CHECKOUT))})

    report["paths_digest"] = untraced.digest()
    report["phase_ms"] = {
        phase: statistics.median(statistics.median(v) for v in by_req.values()) * 1e3
        for phase, by_req in untraced.phases.items()}
    report["no_route"] = sum(s.no_route for s in samples)
    report["violations"] = {i: v[:3] for s in samples for i, v in s.violations.items()}
    report["nondeterministic"] = sorted(set().union(*(s.nondeterministic for s in samples)))
    failed = sum(s.failed for s in samples)
    correct = not failed and not report["violations"] and not report["nondeterministic"]
    if trace:
        correct = correct and report["traced_digest"] == report["paths_digest"] and not left
    line = {
        "correct": correct,
        "attempted": sum(s.attempted for s in samples),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return {"line": line, "report": report}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("drrt_city", "rrt_city", "grid_city"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at a tiny size and check the checks")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 0:
        ap.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_skynav()
    if args.self_test:
        import selftest
        return selftest.run_all()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result["report"]))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
