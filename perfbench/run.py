"""Benchmark for driftplan: closed-loop missions under forecast error,
unsteady-gyre planning and file-backed drift studies.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload island_forecast --seed 42 --seconds 30 --trace 0

``--trace 0`` sets the scenario up several times (``setup_s`` is the median
set-up), then runs tasks for ``--seconds`` and prints every end-to-end
metric, with times scaled to a machine of fixed speed by a reference kernel
timed while they run. ``--trace 1`` runs a fixed,
seed-determined number of tasks three times: untraced, traced and untraced
again. It prints the per-layer metrics of the traced pass and the tracing
overhead; its counts repeat exactly for a seed. Both modes check the outputs
and print digests. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time

# One process, one thread: the benchmark never measures BLAS threading.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 42
#: a second seed, kept for confirming a claim on inputs it was not tuned on
CONFIRM_SEED = 7
#: the scenario is set up SETUP_MIN times and until SETUP_S have passed;
#: setup_s is the median set-up
SETUP_MIN = 3
SETUP_S = 1.5
#: runs of the workload's reference kernel before each set-up
REF_REPS = 2
#: wall time between runs of the reference kernel while tasks run
REF_INTERVAL_S = 0.25
#: a usual time of a reference kernel (the workload's ``reference``) on the
#: machine the benchmark was written on: a 2-vCPU VM, Python 3.11.7, numpy
#: 2.4.6, where the kernels took 4-6 ms in the host's fast state and 8-9 ms
#: in its slow one. Timed end-to-end metrics are reported as on a machine
#: where the kernel takes this long.
REF_NOMINAL_S = 0.006

PER_LAYER = [
    "hjsolver.solve_mtr.calls", "hjsolver.solve_mtr.self_s", "hjsolver.solve_mtr.p50_s",
    "hjsolver.solve_mtr.share",
    "hjsolver.query.calls", "hjsolver.query.self_s",
    "forecast.error_sample.calls", "forecast.error_sample.points",
    "forecast.error_sample.self_s", "forecast.error_sample.share",
    "forecast.gen_forecast_series.calls", "forecast.gen_forecast_series.self_s",
    "flowfield.grid_sample.calls", "flowfield.grid_sample.points", "flowfield.grid_sample.self_s",
    "flowfield.point_sample.calls", "flowfield.point_sample.self_s",
    "flowfield.read_flow_file.bytes", "flowfield.read_flow_file.self_s",
    "simulator.integrate_step.calls", "simulator.integrate_step.self_s",
    "simulator.integrate_step.share",
    "simulator.run_mission.calls", "simulator.run_mission.self_s",
    "simulator.stranding_study.calls", "simulator.stranding_study.self_s",
    "terrain.contains.calls", "terrain.contains.self_s", "terrain.distance_map.self_s",
    "controllers.control.calls", "controllers.control.self_s",
    "controllers.branch.plan", "controllers.branch.doomed", "controllers.branch.float",
    "missions.sample_missions.self_s", "missions.certify_solves", "missions.accept_ratio",
    "trace.overhead_frac",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="island_forecast, gyre_forecast or gyre_drift")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p, p.parse_args(argv)


def import_driftplan():
    """Import driftplan from this checkout's src/, never from elsewhere."""
    pkg = os.path.join(SRC, "driftplan")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: no driftplan sources at {pkg}")
    sys.path.insert(0, SRC)
    import driftplan

    if os.path.dirname(os.path.abspath(driftplan.__file__)) != pkg:
        sys.exit(f"perfbench: imported driftplan from {driftplan.__file__}, not {pkg}")


def environment() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    pkg = os.path.join(SRC, "driftplan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_reference(kernel, refs: list) -> float:
    """Run the reference kernel REF_REPS times, append each time to ``refs``
    and return their mean."""
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    refs.extend(times)
    return statistics.fmean(times)


class HostSampler:
    """Runs the reference kernel every REF_INTERVAL_S of wall time from a
    SIGALRM handler while started, so that its samples are spread evenly
    over the tasks however long each task is. ``clock`` leaves out the time
    spent in the handler, so the samples do not count as task time."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.spent


def run_task(wl, scen, results, clock) -> None:
    res = wl.task(scen, len(results), clock)
    for err in res.errors:
        print(f"failure: {err}", flush=True)
    results.append(res)


def run_tasks(wl, scen, count: int):
    """The first ``count`` tasks, in order."""
    results = []
    while len(results) < count:
        run_task(wl, scen, results, time.perf_counter)
    return results


def set_up(wl, seed: int, setups: list, refs: list):
    """Set the scenario up SETUP_MIN times and until SETUP_S have passed;
    returns the last scenario. Each set-up is timed right after the reference
    kernel, and ``setups`` gets (set-up time, kernel time) pairs. Set-up is
    deterministic, so each scenario is dropped before the next is built."""
    start = time.perf_counter()
    scen = None
    while len(setups) < SETUP_MIN or time.perf_counter() - start < SETUP_S:
        scen = None
        ref = timed_reference(wl.reference, refs)
        t0 = time.perf_counter()
        scen = wl.setup(seed)
        setups.append((time.perf_counter() - t0, ref))
    return scen


def tail(samples) -> str:
    """The highest percentile with at least ten samples beyond it, as text."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return f"no percentile has 10 of {n} samples beyond it"
    return f"p{100.0 * (n - 10) / n:.1f} {xs[n - 11]:.4f} s over {n} samples"


def report_digest(label: str, value: str, reference) -> None:
    if reference is None:
        state = "no reference"
    else:
        state = "matches reference" if value == reference else "CHANGED from reference"
    print(f"digest {label}: {value} ({state})")


def measure(wl, seed: int, seconds: float):
    """Set-up, then tasks in order for ``seconds``, always finishing the task
    in hand.

    Timed metrics are scaled to a machine on which the reference kernel takes
    REF_NOMINAL_S. A shared host flips between a fast and a slow state every
    fraction of a second, and the share of time it spends slow drifts from
    minute to minute. Tasks span many flips, so task times are scaled by the
    kernel's mean over samples taken evenly in time while they run; a set-up
    is short, so each is scaled by the kernel runs just before it.
    """
    clock = time.perf_counter
    setups, setup_refs = [], []
    sampler = HostSampler(wl.reference)
    wl.reference()  # the first run is slow; it warms numpy up
    scen = set_up(wl, seed, setups, setup_refs)
    results = []
    t_start = clock()
    cpu0 = time.process_time()
    sampler.start()
    try:
        while not results or clock() - t_start < seconds:
            run_task(wl, scen, results, sampler.clock)
    finally:
        sampler.stop()
    wall = clock() - t_start
    cpu = time.process_time() - cpu0
    trajectories = sum(r.trajectories for r in results)
    latencies = [r.latency_s for r in results if not math.isnan(r.latency_s)]
    refs = sampler.samples
    # the mean, not the median: the host flips between a fast and a slow
    # state, and a task pays for the share of its time spent in each
    ref = statistics.fmean(refs)
    scale = REF_NOMINAL_S / ref  # < 1 while the machine runs slower than nominal
    task_s = statistics.fmean(latencies)
    rate = trajectories / sum(r.elapsed_s for r in results)
    # A ratio of sums over the run, not a median over tasks: task costs are
    # bimodal (a mission that strands early against one that runs to its
    # deadline), and a mission's cost follows the horizon its replans solve
    # much more closely than it follows the mission count.
    per_day = (sum(r.latency_s for r in results if r.model_days)
               / sum(r.model_days for r in results))
    setup_raw = [t for t, _ in setups]
    metrics = {
        "s_per_model_day": (per_day * scale, "s/day"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(t * REF_NOMINAL_S / r for t, r in setups), "s"),
    }
    print(f"reference kernel: nominal {REF_NOMINAL_S * 1e3:.3f} ms; during tasks "
          f"{len(refs)} runs, mean {ref * 1e3:.3f} ms, median "
          f"{statistics.median(refs) * 1e3:.3f} ms, range {min(refs) * 1e3:.3f} "
          f"to {max(refs) * 1e3:.3f} ms, so task metrics are scaled by {scale:.4f}; "
          f"before set-ups mean {statistics.fmean(setup_refs) * 1e3:.3f} ms")
    print(f"setup runs: {len(setups)}, unscaled median {statistics.median(setup_raw):.4f} s, "
          f"range {min(setup_raw):.4f} to {max(setup_raw):.4f} s")
    print(f"tasks: {len(results)} in {wall:.2f} s wall, {cpu:.2f} s CPU; "
          f"{trajectories} {wl.unit} completed, {rate:.4f} per second unscaled, "
          f"{rate / scale:.4f} scaled")
    print(f"task latency, unscaled: mean {task_s:.4f} s, "
          f"p50 {statistics.median(latencies):.4f} s; tail {tail(latencies)}; "
          f"scaled mean {task_s * scale:.4f} s")
    print(f"model time: {sum(r.model_days for r in results):.3f} days, "
          f"{per_day:.5f} s per day unscaled")
    return scen, results, metrics


def traced(wl, seed: int, tracer):
    """The same fixed work untraced, traced, and untraced again; the traced
    pass gives the per-layer metrics, the passes around it the overhead."""
    count = wl.trace_tasks
    clock = time.perf_counter

    def untraced_pass():
        t0 = clock()
        run_tasks(wl, wl.setup(seed), count=count)
        return clock() - t0

    before = untraced_pass()
    tracer.install()
    try:
        t0 = clock()
        scen = wl.setup(seed)
        t_work = clock()
        results = run_tasks(wl, scen, count)
        t_end = clock()
    finally:
        tracer.uninstall()
    untraced = 0.5 * (before + untraced_pass())
    traced_s = t_end - t0
    print(f"traced: {count} tasks; untraced passes {untraced:.3f} s on average, "
          f"traced pass {traced_s:.3f} s")
    return scen, results, layer_metrics(tracer, results, (t_work, t_end), scen,
                                        (traced_s - untraced) / untraced)


def layer_metrics(tracer, results, window, scen, overhead) -> dict:
    import scenarios

    s = tracer.summary(window)
    work_s = window[1] - window[0]

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    m = {}
    for name in ("hjsolver.solve_mtr", "hjsolver.query", "forecast.error_sample",
                 "forecast.gen_forecast_series", "flowfield.grid_sample",
                 "flowfield.point_sample", "simulator.integrate_step",
                 "simulator.run_mission", "simulator.stranding_study", "terrain.contains",
                 "controllers.control"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("flowfield.read_flow_file", "terrain.distance_map",
                 "missions.sample_missions"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("forecast.error_sample.points", "flowfield.grid_sample.points"):
        m[name] = (tracer.extra[name], "count")
    m["flowfield.read_flow_file.bytes"] = (tracer.extra["flowfield.read_flow_file.bytes"], "B")
    replans = tracer.durations("hjsolver.solve_mtr", parent_not="missions.sample_missions")
    m["hjsolver.solve_mtr.p50_s"] = (float(statistics.median(replans)) if len(replans) else 0.0, "s")
    # shares of the task phase's wall time, set-up excluded
    m["hjsolver.solve_mtr.share"] = (get("hjsolver.solve_mtr", "incl_window_s") / work_s, "frac")
    m["forecast.error_sample.share"] = (get("forecast.error_sample", "self_window_s") / work_s, "frac")
    m["simulator.integrate_step.share"] = (
        get("simulator.integrate_step", "incl_window_s") / work_s, "frac")
    branches = scenarios.branch_counts(results)
    for b in ("plan", "doomed", "float"):
        m[f"controllers.branch.{b}"] = (branches[b], "count")
    certify = tracer.count_children("hjsolver.solve_mtr", "missions.sample_missions")
    accepted = getattr(scen, "accepted", 0)
    m["missions.certify_solves"] = (certify, "count")
    m["missions.accept_ratio"] = (accepted / certify if certify else 0.0, "frac")
    m["trace.overhead_frac"] = (overhead, "frac")
    return {k: m[k] for k in PER_LAYER}


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    import_driftplan()
    import scenarios  # beside this file; imports driftplan

    wl = scenarios.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(scenarios.WORKLOADS)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed} (default {DEFAULT_SEED}, "
          f"confirmation seed {CONFIRM_SEED}), trace {args.trace}")
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        scen, results, metrics = traced(wl, args.seed, tracer)
        spans = os.path.join(scenarios.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.write(spans)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans, ROOT)}")
    else:
        scen, results, metrics = measure(wl, args.seed, args.seconds)

    problems = wl.check(scen, results)
    for p in problems:
        print(f"check failed: {p}")
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as fh:
        refs = json.load(fh)
    key = f"{args.workload}/seed{args.seed}"
    k = wl.trace_tasks
    if len(results) >= k:
        report_digest(f"{key} first {k} tasks", wl.digest(results[:k]), refs.get(key))
    if args.trace:
        for name, value in scenarios.solve_digests().items():
            report_digest(f"solve_mtr/{name}", value, refs.get(f"solve_mtr/{name}"))

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}: {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
