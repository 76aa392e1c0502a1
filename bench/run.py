"""Benchmark of the bcjacobi package: three closed-loop workloads, timed per layer.

    python3 bench/run.py --workload inverse-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Run from anywhere; the package is imported from ``src/`` of the checkout this
file sits in, never from an installed copy.  BLAS is pinned to one thread
before numpy loads.  One process runs one op at a time (closed loop); an op is
one call into a public function plus a check of its output, and a failed
check or an exception counts as a failed op.

``--trace 0`` times whole passes over the workload's ops for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` spends half the time
untraced and half with spans on, then runs one traced pass of each other
workload so that every per-layer metric is measured; it reports the
per-layer metrics and writes the spans, each layer function's self time,
the ladder exponent fits and the tracing overhead to ``bench/out/``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the environment and the sample counts.  The exit
code is 1 when any op failed and 2 when the package sources are missing.
"""

from __future__ import annotations

import os

# must precede the first numpy import anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, ladder_exponent

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")

# ladders whose log-log slope is reported as <name>.exp
FITS = (
    "discrete_wave.response_vector",
    "discrete_wave.connecting_from_response",
    "inverse_bc.invert_factorization",
    "inverse_bc.characterize",
    "weyl_debranges.debranges_kernel",
    "continuous_time.recover_matrix_continuous",
    "continuous_time.corrected_response",
)

# whole-op timings of one workload, summed per pass: name -> (workload, op filter)
HEADLINES = {
    "invert_T400_s": ("inverse-deep",
                      lambda op, s: op.kind == "invert_factorization" and op.size == f"T{s['T'][-1]}"),
    "recover_M1600_s": ("continuous-large",
                        lambda op, s: op.kind == "recover_matrix_continuous" and op.size == f"M{s['M'][-1]}"),
    "scenarios_s": ("frontend", lambda op, s: op.kind == "run_scenario"),
    "verify_s": ("frontend", lambda op, s: op.fixed_size),
}


def load_package():
    """Import the package from this checkout's sources; exit 2 if they are absent."""
    if not (ROOT / "src" / "bcjacobi" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import bcjacobi

    if Path(bcjacobi.__file__).resolve().parent != ROOT / "src" / "bcjacobi":
        print(f"error: bcjacobi resolved to {bcjacobi.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


# ------------------------------------------------------------------ passes

class Stats:
    """Timings of the passes of one phase, one op at a time."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.op_s: dict[str, list[float]] = {}
        self.counters: dict[str, list[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []


def run_passes(ops, tracer, budget_s: float, counters: dict) -> Stats:
    """Whole passes until the next one would overrun ``budget_s`` (at least one)."""
    stats = Stats()
    t_start = time.perf_counter()
    while True:
        tracer.pass_idx += 1
        before = dict(counters)
        p0 = time.perf_counter()
        for op in ops:
            run_op(op, tracer, stats)
        stats.pass_s.append(time.perf_counter() - p0)
        for name, value in counters.items():
            stats.counters.setdefault(name, []).append(value - before.get(name, 0))
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(stats.pass_s) > budget_s:
            return stats


def run_op(op, tracer, stats: Stats) -> None:
    stats.attempted += 1
    tracer.begin_op(op)
    t0 = time.perf_counter()
    try:
        op.run(tracer)
    except Exception:  # a failed op is counted and reported, the run goes on
        stats.failed += 1
        stats.failures.append(f"{tracer.workload} {op.key}: {traceback.format_exc(limit=3)}")
    finally:
        stats.op_s.setdefault(op.key, []).append(time.perf_counter() - t0)
        tracer.end_op()


def build(wl, workload: str, seed: int, sizes: dict, counters: dict):
    workdir = OUT / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    return wl.WORKLOADS[workload](seed, sizes[workload], workdir, counters)


def warm_up(wl, workload: str) -> Stats:
    """One pass at self-test size and seed, skipping the fixed-size acceptance checks."""
    ops = [op for op in build(wl, workload, 0, wl.TINY, {}) if not op.fixed_size]
    stats = Stats()
    for op in ops:
        run_op(op, Tracer(workload, False), stats)
    return stats


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, build the inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


# ----------------------------------------------------------------- metrics

def metric_name(call: str, size: str) -> str:
    return f"{call}.{size}_s" if size else f"{call}_s"


def per_layer_names(wl, sizes: dict) -> list[str]:
    """Every per-layer metric, in report order, for the given size tables."""
    names = []
    for workload in wl.WORKLOADS:
        for op in build(wl, workload, 0, sizes, {}):
            names += [metric_name(c, op.size) for c in op.calls]
    names += [f"{f}.exp" for f in FITS]
    names += list(HEADLINES) + ["cli.bytes_written", "trace.untraced_pass_s",
                                "trace.traced_pass_s", "trace.overhead_frac"]
    return names


def per_layer_metrics(sizes: dict, phases: dict, own: str, untraced: Stats) -> tuple[dict, dict]:
    """Per-layer metrics plus the fit details, from one traced phase per workload.

    ``phases`` maps each workload to (ops, stats, tracer) of its traced phase.
    Headline op timings come from the untraced phase for the workload run
    on its own and from the single traced pass for the others.
    """
    values, fits = {}, {}
    self_times = {}
    for workload, (ops, stats, tracer) in phases.items():
        st = tracer.self_times()
        self_times[workload] = st
        for op in ops:
            for call in op.calls:
                # None only when the op failed before the call; the run then fails
                values[metric_name(call, op.size)] = (st.get((call, op.size)), "s")
    for fit in FITS:
        pts = sorted((int(m.group(1)), secs)
                     for st in self_times.values() for (name, size), secs in st.items()
                     if name == fit and (m := re.fullmatch(r"[TMN](\d+)", size)))
        fits[fit] = {"sizes": [p[0] for p in pts], "seconds": [p[1] for p in pts]}
        fits[fit]["exponent"] = ladder_exponent(*zip(*pts))
        values[f"{fit}.exp"] = (fits[fit]["exponent"], "1")
    for name, (workload, pick) in HEADLINES.items():
        ops, stats, _ = phases[workload]
        if workload == own:
            stats = untraced
        keys = {op.key for op in ops if pick(op, sizes[workload])}
        per_pass = [sum(stats.op_s[k][i] for k in keys) for i in range(len(stats.pass_s))]
        values[name] = (statistics.median(per_pass), "s")
    _, front_stats, _ = phases["frontend"]
    values["cli.bytes_written"] = (int(statistics.median(front_stats.counters["cli.bytes_written"])), "count")
    traced = phases[own][1]
    values["trace.untraced_pass_s"] = (statistics.median(untraced.pass_s), "s")
    values["trace.traced_pass_s"] = (statistics.median(traced.pass_s), "s")
    values["trace.overhead_frac"] = (
        statistics.median(traced.pass_s) / statistics.median(untraced.pass_s) - 1.0, "1")
    detail = {
        "fits": fits,
        "self_s": {w: {metric_name(*k): v for k, v in st.items()} for w, st in self_times.items()},
    }
    return values, detail


# ------------------------------------------------------------- environment

def blas_libraries() -> list[dict]:
    """Each loaded OpenBLAS with its configuration and thread count read back."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for key, suffix, restype in (("threads", "get_num_threads", ctypes.c_int),
                                     ("config", "get_config", ctypes.c_char_p)):
            for prefix in ("scipy_openblas_", "openblas_"):
                for tail in ("64_", ""):
                    fn = getattr(lib, f"{prefix}{suffix}{tail}", None)
                    if fn is not None:
                        fn.restype = restype
                        value = fn()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
                        break
                if key in entry:
                    break
        libs.append(entry)
    return libs


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reading a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bcjacobi").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "pinned_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
                 "loaded": blas_libraries()},
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


# -------------------------------------------------------------------- modes

def run_untraced(wl, workload: str, seed: int, seconds: float):
    setup = measure_setup(workload, seed)
    counters = {}
    ops = build(wl, workload, seed, wl.FULL, counters)
    warm = warm_up(wl, workload)
    stats = run_passes(ops, Tracer(workload, False), seconds, counters)
    metrics = dict(zip(END_TO_END, (
        (statistics.median(setup), "s"),
        (statistics.median(stats.pass_s), "s"),
        (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    )))
    return metrics, [stats, warm], {"setup_s_samples": setup}


def run_traced(wl, workload: str, seed: int, seconds: float, sizes: dict):
    """Half the time untraced, half traced, then one traced pass of each other workload."""
    counters = {}
    ops = build(wl, workload, seed, sizes, counters)
    warm = warm_up(wl, workload) if sizes is wl.FULL else Stats()
    untraced = run_passes(ops, Tracer(workload, False), seconds / 2, counters)
    tracer = Tracer(workload, True)
    phases = {workload: (ops, run_passes(ops, tracer, seconds / 2, counters), tracer)}
    for other in wl.WORKLOADS:
        if other != workload:
            other_counters = {}
            other_ops = build(wl, other, seed, sizes, other_counters)
            other_tracer = Tracer(other, True)
            phases[other] = (other_ops, run_passes(other_ops, other_tracer, 0.0, other_counters),
                             other_tracer)
    metrics, detail = per_layer_metrics(sizes, phases, workload, untraced)
    all_stats = [untraced, warm] + [stats for _, stats, _ in phases.values()]
    spans = [s for _, _, tr in phases.values() for s in tr.dump()]
    detail["spans"] = spans
    detail["probe_workloads"] = [w for w in phases if w != workload]
    return metrics, all_stats, detail, phases


def report(args, metrics: dict, stats_list: list, extra: dict) -> int:
    attempted = sum(s.attempted for s in stats_list)
    failed = sum(s.failed for s in stats_list)
    for s in stats_list:
        for msg in s.failures:
            print(msg, file=sys.stderr)
    env = environment(args.seed)
    own = stats_list[0]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "passes": len(own.pass_s), "pass_s_samples": own.pass_s,
        "op_median_s": {k: statistics.median(v) for k, v in own.op_s.items()},
        "failures": [m for s in stats_list for m in s.failures],
    }
    summary.update({k: v for k, v in extra.items() if k not in ("spans", "self_s", "fits")})
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(summary, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    full.update({k: extra[k] for k in ("fits", "self_s", "spans") if k in extra})
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def selftest(wl) -> int:
    """Tiny sizes, one pass per phase: every op kind, every check, every metric."""
    t0 = time.perf_counter()
    metrics, stats_list, detail, phases = run_traced(wl, "inverse-deep", 0, 0.0, wl.TINY)
    problems = [m for s in stats_list for m in s.failures]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    full_names = per_layer_names(wl, wl.FULL)
    if [m["name"] for m in spec["per_layer"]] != full_names:
        problems.append("BENCHMARK.json per_layer differs from the metrics run.py reports")
    if tuple(m["name"] for m in spec["end_to_end"]) != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the metrics run.py reports")
    if set(metrics) != set(per_layer_names(wl, wl.TINY)):
        problems.append("tiny traced run did not report every per-layer metric")
    for workload in wl.WORKLOADS:
        full_kinds = {op.kind for op in build(wl, workload, 0, wl.FULL, {})}
        ops, _, tracer = phases[workload]
        if {op.kind for op in ops} != full_kinds:
            problems.append(f"{workload}: tiny op kinds differ from the full ones")
        recorded = {(s[0], s[1]) for s in tracer.spans}
        for op in ops:
            missing = [c for c in op.calls if (c, op.size) not in recorded]
            if missing:
                problems.append(f"{workload} {op.key}: no span for {missing}")
    for p in problems:
        print(p, file=sys.stderr)
    attempted = sum(s.attempted for s in stats_list)
    print(f"selftest: {attempted} ops, {len(problems)} problems, {time.perf_counter() - t0:.1f}s")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("inverse-deep", "continuous-large", "frontend"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    wl = load_package()
    if args.selftest:
        return selftest(wl)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        build(wl, args.workload, args.seed, wl.FULL, {})
        stats = warm_up(wl, args.workload)
        return 0 if stats.failed == 0 else 1
    if args.trace == 0:
        metrics, stats_list, extra = run_untraced(wl, args.workload, args.seed, args.seconds)
        return report(args, metrics, stats_list, extra)
    metrics, stats_list, detail, _ = run_traced(wl, args.workload, args.seed,
                                                args.seconds, wl.FULL)
    return report(args, metrics, stats_list, detail)


if __name__ == "__main__":
    sys.exit(main())
