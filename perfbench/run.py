"""algen benchmark: one workload per process, timed or traced.

    python3 perfbench/run.py --workload solve-1ep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it is a ``detail`` object with
the environment, per-workload figures and, when traced, the span table
and the deterministic counters.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import importlib.metadata  # after the peak RSS is read

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    loc = {}
    for path in sorted((ROOT / "src" / "algen").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            loc[path.stem] = sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "src_loc": loc,
            "src_loc_total": sum(loc.values())}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []
        self.digest = hashlib.sha256()

    def add(self, outcome) -> None:
        """Count one checked output."""
        self.attempted += 1
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.digest.update(outcome.emitted.encode() + b"\n")
        self.note(outcome.note)

    def note(self, note) -> None:
        if note and note not in self.notes:
            self.notes.append(note)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for note in other.notes:
            self.note(note)


# The host's speed drifts by up to a factor of two within seconds, from load
# outside the process.  A fixed pure-Python reference is timed just before
# every operation and set-up; every timed metric is scaled to the speed at
# which the reference takes REFERENCE_S.
REFERENCE_S = 0.005


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_work() -> int:
    """Three kinds of pure-Python work in about equal parts, as the program
    mixes them: tuple-keyed table lookups over ``itertools.product`` (the
    closure and homomorphism loops), building and formatting small dicts
    and strings (parsing and rendering), and small objects (terms)."""
    table = {(i, j): (i * j) % 7 for i in range(7) for j in range(7)}
    acc = 0
    for _ in range(13):
        for args in itertools.product(range(7), repeat=3):
            acc += table[(table[args[:2]], args[2])]
    for _ in range(100):
        names = {f"k{j}": (j, str(j)) for j in range(20)}
        text = ", ".join(f"{k} -> {v[1]}" for k, v in sorted(names.items()))
        acc += len(text.split(", ")) + sum(1 for v in names.values() if v[0] % 3)
    for i in range(1000):
        acc += hash(_Pair(i, (i, i + 1)).value) & 1
        acc += sum(1 for _ in range(3))
    return acc


class Speed:
    """Reference samples (midpoint, seconds), in the order taken, and the
    scaling of a raw time by the mean of the two samples that bracket it:
    the last one before it and the first one after it.  Over repeated runs
    this gave narrower spreads than the median of the samples within 0.05 s
    to 1 s of the operation, most of all for operations of a few ms."""

    def __init__(self):
        self.times = []
        self.seconds = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def scaled(self, start: float, end: float, raw: float) -> float:
        before = self.seconds[bisect.bisect_left(self.times, start) - 1]
        after = self.seconds[bisect.bisect_right(self.times, end)]
        return raw * REFERENCE_S / ((before + after) / 2)


def run_op(workload, state, op, tally, call=None):
    """Time one operation, then check it; returns (latency, outcome)."""
    from workloads import Outcome

    start = time.perf_counter()
    try:
        result = call(workload.run, state, op) if call else workload.run(state, op)
    except Exception as exc:  # an operation that raises counts as failed
        latency = time.perf_counter() - start
        outcome = Outcome(f"raised {type(exc).__name__}", failed=True,
                          note=f"{op[0]}: raised {type(exc).__name__}: {exc}")
    else:
        latency = time.perf_counter() - start
        outcome = workload.check(op, result)
    tally.add(outcome)
    return latency, outcome


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed(workload, seconds: float):
    tally = Tally()
    speed = Speed()
    setups = []
    for _ in range(workload.setup_repeats):
        speed.sample()
        start = time.perf_counter()
        state = workload.setup()
        end = time.perf_counter()
        speed.sample()
        setups.append((start, end))
        tally.add(workload.check_setup(state))
    records = []
    spans = []
    # whole passes, so that every class or case weighs the same, and as many
    # as fill ``seconds`` at the nominal pass time, so that the operations,
    # and with them ``attempted`` and ``failed``, depend only on the
    # arguments and not on the host's speed
    passes = max(workload.min_passes, round(seconds / workload.nominal_pass_s))
    for index in range(passes):
        for op in workload.pass_ops(index):
            speed.sample()
            begin = time.perf_counter()
            latency, outcome = run_op(workload, state, op, tally)
            spans.append((begin, begin + latency))
            records.append((index, op, latency, outcome))
    speed.sample()
    raw = [r[2] for r in records]
    latencies = [speed.scaled(b, e, r) for (b, e), r in zip(spans, raw)]
    setup = [speed.scaled(b, e, e - b) for b, e in setups]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": quantile(latencies, 0.9) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = workload.summary(
        [(i, op, latency, outcome)
         for (i, op, _, outcome), latency in zip(records, latencies)])
    figures = {**metrics, **summary}
    named = {name: {"value": figures[key], "unit": unit}
             for name, (key, unit) in workload.named.items()}
    named["peak_rss_mb"] = {"value": metrics["peak_rss_mb"], "unit": "MB"}
    named["fail_ratio"] = {"value": tally.failed / tally.attempted,
                           "unit": "ratio", "failed": tally.failed,
                           "attempted": tally.attempted}
    references = speed.seconds
    detail = {"named": named, "passes": passes, "ops": len(latencies),
              "unscaled": {"setup_s": statistics.median(e - b for b, e in setups),
                           "op_p50_ms": statistics.median(raw) * 1e3,
                           "op_p90_ms": quantile(raw, 0.9) * 1e3,
                           "ops_per_s": len(raw) / sum(raw),
                           **workload.summary(records)},
              "reference_s": {"samples": len(references),
                              "min": min(references),
                              "median": statistics.median(references),
                              "max": max(references)},
              **summary}
    return tally, metrics, detail


IMPORT_PROBE = ("import time; start = time.perf_counter(); import algen.cli; "
                "print(time.perf_counter() - start)")


def import_seconds(repeats: int = 5) -> float:
    """Median time of ``import algen.cli`` in a fresh interpreter, one at a
    time: the import a CLI user pays, standard-library modules included."""
    import subprocess

    from workloads import src_env

    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=src_env(), capture_output=True, text=True,
                             timeout=60, check=True).stdout)
        for _ in range(repeats))


def traced(workload, seconds: float, names):
    """Every operation twice, on two set-ups: once plain and once with the
    wrappers in place, alternating which goes first, so that a drift in
    machine speed falls on both sides alike.  Counts are exact because the
    number of passes depends only on ``seconds``, and both sides together
    take about ``seconds``; the difference in operation time between the
    sides is the tracing overhead."""
    from spans import Patches, Tracer, layer_metrics

    passes = max(1, round(seconds / (2 * workload.nominal_pass_s)))
    tracer = Tracer()
    patches = Patches(tracer)
    plain = workload.setup()
    with patches:
        wrapped = tracer.span("bench.setup", workload.setup)
    sides = [(plain, Tally(), None),
             (wrapped, Tally(), lambda fn, *a: tracer.span("bench.op", fn, *a))]
    op_time = [0.0, 0.0]
    count = 0
    for index in range(passes):
        for op in workload.pass_ops(index):
            for side in ((0, 1) if count % 2 == 0 else (1, 0)):
                state, tally, call = sides[side]
                with patches if call else contextlib.nullcontext():
                    op_time[side] += run_op(workload, state, op, tally, call)[0]
            count += 1
    tally = Tally()
    for state, side_tally, _ in sides:
        side_tally.add(workload.check_setup(state))
        tally.absorb(side_tally)
    digests = [side_tally.digest.hexdigest() for _, side_tally, _ in sides]
    if digests[0] != digests[1]:
        tally.wrong += 1
        tally.note("traced and untraced runs emitted different outputs")
    metrics = layer_metrics(tracer, names)
    metrics["cli.import_s"] = import_seconds()
    metrics["trace.overhead_pct"] = (op_time[1] / op_time[0] - 1) * 100
    counters = {f"calls.{k}": v for k, v in sorted(tracer.calls.items())}
    counters.update(tracer.counts)
    detail = {"passes": passes, "op_time_s": {"untraced": op_time[0],
                                              "traced": op_time[1]},
              "digest": digests[1], "counters": counters,
              "spans": tracer.span_table()}
    return tally, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "algen").is_dir() or not declared_path.is_file():
        fail(f"needs src/algen and BENCHMARK.json under {ROOT}")
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    declared = json.loads(declared_path.read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        tally, metrics, detail = traced(workload, args.seconds, units)
    else:
        tally, metrics, detail = timed(workload, args.seconds)
    if sorted(units) != sorted(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, notes=tally.notes, environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
