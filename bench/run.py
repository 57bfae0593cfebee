"""Benchmark entry point: one workload per process, BLAS pinned to one thread.

    python3 bench/run.py --workload meta-train-desk --seed 3 --seconds 20 --trace 0

With ``--trace 0`` it times the workload untraced and prints the end-to-end
metrics; with ``--trace 1`` it runs half the time untraced and half traced
and prints the per-layer metrics and the tracing overhead. Either way every
operation's output is checked against ``golden.json``, an environment line
and a readable summary come first, and the last line of standard output is
the JSON result.

Times are reported at a reference host speed. Neighbours on a shared host
speed every process up or slow it down by a fifth or more from one run to
the next. Fixed reference loops, run between the operations for about a
tenth of the time, measure that speed, and each operation is scaled by the
passes on either side of it to a host on which one pass takes REFERENCE_MS.
The summary lines give the unscaled wall time beside each scaled figure.
"""

from __future__ import annotations

import os

BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)  # before numpy is first imported

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
TRACE_DIR = ROOT / ".bench_trace"

# Set-up repeats until both limits are met; setup_s is the median.
SETUP_REPEATS = 10
SETUP_SECONDS = 2.0
MIN_OPS = 3
REL_TOL = 1e-9
REFERENCE_MS = 6.0
REFERENCE_SHARE = 0.1
_REF_RNG = np.random.default_rng(0)
_REF_W = 0.1 * _REF_RNG.standard_normal((32, 32))
_REF_U = 0.1 * _REF_RNG.standard_normal((32, 32))
_REF_BIG = np.ones(2_000_000)
_REF_OUT = np.empty_like(_REF_BIG)


def import_program():
    """Import mkgd from this checkout's sources, never from an installed copy."""
    if not (SOURCE_DIR / "mkgd" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SOURCE_DIR / 'mkgd'}")
    sys.path.insert(0, str(SOURCE_DIR))
    import mkgd

    if Path(mkgd.__file__).resolve().parent != SOURCE_DIR / "mkgd":
        raise SystemExit(f"error: imported mkgd from {mkgd.__file__}, not {SOURCE_DIR}")


def matches(observed, expected):
    """Equal structure, integers exactly, floats within REL_TOL relative."""
    if isinstance(expected, dict):
        return (isinstance(observed, dict) and observed.keys() == expected.keys()
                and all(matches(observed[k], expected[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(observed, (list, tuple)) and len(observed) == len(expected)
                and all(matches(o, e) for o, e in zip(observed, expected)))
    if isinstance(expected, float):
        return (isinstance(observed, float)
                and abs(observed - expected) <= REL_TOL * max(abs(observed), abs(expected)))
    return type(observed) is type(expected) and observed == expected


def reference_seconds():
    """One pass of two fixed loops, as the geometric mean of their times.

    The first is shaped like the engine at desk scale: 32-wide matrix-vector
    products and elementwise ops driven from Python. The second streams
    16 MB arrays, like the paper-dims tables. Neighbours slow the two by
    different amounts, and every workload mixes both kinds of work.
    """
    x, h = np.ones(32), np.zeros(32)
    start = perf_counter()
    for _ in range(400):
        z = 1.0 / (1.0 + np.exp(-(_REF_W @ x + _REF_U @ h)))
        h = (1.0 - z) * np.tanh(_REF_W @ x) + z * h
    middle = perf_counter()
    np.multiply(_REF_BIG, 0.5, out=_REF_OUT)
    np.add(_REF_OUT, _REF_BIG, out=_REF_OUT)
    return math.sqrt((middle - start) * (perf_counter() - middle))


def reference_block(seconds):
    """Mean time of reference passes run for `seconds`, and at least one."""
    deadline = perf_counter() + seconds
    passes = [reference_seconds()]
    while perf_counter() < deadline:
        passes.append(reference_seconds())
    return statistics.fmean(passes)


class Series:
    """Outcomes of the operations of one measured phase.

    ``reference`` holds the mean reference pass measured before each
    completed operation, and one more measured after the last, so every
    operation has passes on either side of it.
    """

    def __init__(self):
        self.phases = defaultdict(list)
        self.totals = []
        self.reference = []
        self.attempted = 0
        self.failed = 0

    def factors(self):
        """Per operation, the factor that turns its times into reference-speed times."""
        ref = self.reference
        return [2.0 * REFERENCE_MS / (1000.0 * (ref[i] + ref[i + 1]))
                for i in range(len(self.totals))]

    def scaled(self, values):
        return [v * f for v, f in zip(values, self.factors())]


def timed_setup(workload):
    gc.collect()
    start = perf_counter()
    state = workload.setup()
    return perf_counter() - start, state


def run_ops(workload, holder, expected, seconds):
    """Operations until `seconds` have passed (at least MIN_OPS), each checked.

    ``holder.state`` holds the only reference to the set-up state: a restart
    drops the old state before the next set-up builds a new one, and the
    state is dropped when the phase ends, so no two set-ups are ever alive
    at once.
    """
    series = Series()
    deadline = perf_counter() + seconds
    i = 0
    last = 0.0
    while i < MIN_OPS or perf_counter() < deadline:
        if i and workload.restarts and i % workload.period == 0:
            holder.state = None
            _, holder.state = timed_setup(workload)
        before = reference_block(REFERENCE_SHARE * last)
        series.attempted += 1
        try:
            phases, observed = workload.op(holder.state, i)
        except Exception:  # an operation that raises counts as failed; go on
            traceback.print_exc()
            series.failed += 1
            i += 1
            continue
        series.reference.append(before)
        for phase, seconds_spent in phases.items():
            series.phases[phase].append(seconds_spent)
        last = sum(phases.values())
        series.totals.append(last)
        want = expected[i % workload.period]
        if not matches(observed, want):
            series.failed += 1
            print(f"check failed at operation {i}: got {json.dumps(observed)}, "
                  f"want {json.dumps(want)}", file=sys.stderr)
        i += 1
    series.reference.append(reference_block(0.0))
    holder.state = None
    if not series.totals:
        raise SystemExit("error: no operation completed")
    return series


def tail_percentiles(values):
    """p90/p99 where at least ten samples lie beyond them."""
    out = {}
    for q in (90, 99):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def git_commit():
    """HEAD of the checkout's git repository, read from files, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SOURCE_DIR / "mkgd").rglob("*.py")):
        digest.update(path.relative_to(SOURCE_DIR).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, variant):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_pin": BLAS_PIN,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def summary(workload, series, label):
    """Lines naming the workload's own metrics (episode_s, turn_ms, ...)."""
    lines = []
    named = [(workload.op_name, series.totals)]
    if len(workload.phases) > 1:
        named += [(f"{phase}_s", series.phases[phase]) for phase in workload.phases]
    for name, values in named:
        unit = 1000.0 if name.endswith("_ms") else 1.0
        scaled = series.scaled(values)
        line = f"{label}{name}: median {statistics.median(scaled) * unit:.6g}"
        for tail, v in tail_percentiles(scaled).items():
            line += f", {tail} {v * unit:.6g}"
        lines.append(line + f" (wall {statistics.median(values) * unit:.6g}; "
                     f"{len(values)} samples)")
    lines.append(f"{label}host speed: reference pass "
                 f"{1000.0 * statistics.fmean(series.reference):.4g} ms, "
                 f"times above scaled by {statistics.fmean(series.factors()):.4g} on average")
    return lines


def declared_metrics(key):
    """Metric names and units BENCHMARK.json declares, when it is there to compare with."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[key]}


def end_to_end(workload, expected, seconds):
    setup = Series()
    holder = SimpleNamespace(state=None)
    start = perf_counter()
    while len(setup.totals) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        holder.state = None
        setup.reference.append(reference_block(0.0))
        elapsed, holder.state = timed_setup(workload)
        setup.totals.append(elapsed)
    setup.reference.append(reference_block(0.0))
    series = run_ops(workload, holder, expected, seconds)
    metrics = {
        "op_ms": {"value": statistics.median(series.scaled(series.totals)) * 1000.0,
                  "unit": "ms"},
        "setup_s": {"value": statistics.median(setup.scaled(setup.totals)), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    lines = summary(workload, series, "")
    lines.append(f"setup_s: median {metrics['setup_s']['value']:.6g} "
                 f"(wall {statistics.median(setup.totals):.6g}; {len(setup.totals)} samples)")
    return series, lines, metrics, []


def per_layer(workload, expected, seconds, trace_path):
    from tracing import TAPE_COUNTERS, Tracer

    holder = SimpleNamespace(state=timed_setup(workload)[1])
    plain = run_ops(workload, holder, expected, seconds / 2)

    tracer = Tracer()
    tracer.install()
    try:
        holder.state = timed_setup(workload)[1]
        at_setup_end = tracer.totals()
        traced = run_ops(workload, holder, expected, seconds / 2)
    finally:
        tracer.uninstall()
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)

    values = tracer.layer_metrics(at_setup_end, len(traced.totals))
    missing = [name for name in workload.expected_spans if values[f"{name}.calls"] == 0]
    if "tensor.backward" in workload.expected_spans:
        missing += [name for name in TAPE_COUNTERS if values[name] == 0]
    traced_scale = statistics.fmean(traced.factors())
    for name in values:
        if name.endswith(".s"):
            values[name] *= traced_scale

    # The phase split and the tail come from the untraced half.
    for phase in ("fwd", "bwd", "opt"):
        values[f"{phase}_s"] = statistics.median(plain.scaled(plain.phases.get(phase) or [0.0]))
    values["op_ms.p90"] = tail_percentiles(plain.scaled(plain.totals)).get("p90", 0.0) * 1000.0
    plain_ms = statistics.median(plain.scaled(plain.totals)) * 1000.0
    traced_ms = statistics.median(traced.scaled(traced.totals)) * 1000.0
    values["trace.overhead_ms"] = traced_ms - plain_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms

    metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}

    series = Series()
    series.attempted = plain.attempted + traced.attempted
    series.failed = plain.failed + traced.failed
    lines = summary(workload, plain, "untraced ") + summary(workload, traced, "traced ")
    lines.append(f"tracing overhead: {traced_ms - plain_ms:.6g} ms per operation "
                 f"({values['trace.overhead_pct']:.3g}%); spans written to {trace_path}")
    return series, lines, metrics, missing


def _unit(name):
    if name.endswith(".calls") or name.startswith("tensor.tape_nodes"):
        return "count"
    for suffix, unit in (("_mb", "MB"), ("_ms", "ms"), ("_ms.p90", "ms"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import VARIANTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    variant = args.seed % VARIANTS
    expected = json.loads(GOLDEN_PATH.read_text())[args.workload][str(variant)]
    print(json.dumps({"env": environment(args, variant)}), flush=True)

    reference_seconds()  # the first pass pays one-off costs; keep it out of the mean
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](variant, workdir)
        if args.trace:
            trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
            series, lines, metrics, missing = per_layer(workload, expected, args.seconds,
                                                        trace_path)
        else:
            series, lines, metrics, missing = end_to_end(workload, expected, args.seconds)

    for line in lines:
        print(line)
    print(f"failed_frac: {series.failed / series.attempted:.6g} "
          f"({series.failed} of {series.attempted} operations)")
    if missing:
        print(f"error: traced run saw no calls for {', '.join(missing)}", file=sys.stderr)
        return 1
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    printed = {name: m["unit"] for name, m in metrics.items()}
    if declared is not None and declared != printed:
        print("error: printed metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared.items()) ^ set(printed.items()))}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": series.failed == 0, "attempted": series.attempted,
                      "failed": series.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
