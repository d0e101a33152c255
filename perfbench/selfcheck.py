"""Checks of the benchmark itself, run from the repository root:

    python3 perfbench/selfcheck.py [--seed 3] [--seconds 2] [WORKLOAD ...]

1. Each workload runs traced twice with the same seed, one process after
   the other.  The deterministic counters (call counts, elements built,
   homs yielded, verdicts, mcsg entries) and the digest of every emitted
   output must be identical, and both runs must report ``correct``.
2. The sizes that free-build expects equal ``oracle.free_size``.
3. The problem generator repeats for a seed and changes with the seed.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def check_determinism(workload: str, seed: int, seconds: float) -> list[str]:
    (d1, r1), (d2, r2) = (traced_run(workload, seed, seconds) for _ in range(2))
    problems = []
    if not (r1["correct"] and r2["correct"]):
        problems.append(f"{workload}: not correct ({d1['notes'] or d2['notes']})")
    if d1["digest"] != d2["digest"]:
        problems.append(f"{workload}: emitted outputs differ between runs")
    for key in sorted(set(d1["counters"]) | set(d2["counters"])):
        a, b = d1["counters"].get(key), d2["counters"].get(key)
        if a != b:
            problems.append(f"{workload}: counter {key} is {a} then {b}")
    return problems


def check_free_sizes() -> list[str]:
    import oracle
    from workloads import FREE_CASES, variety_path

    return [f"{v} F({n}): expected {size}, oracle finds {found}"
            for v, n, _, size in FREE_CASES if size is not None
            for found in [oracle.free_size(oracle.Variety(ROOT / variety_path(v)), n)]
            if found != size]


def check_generator() -> list[str]:
    import mix
    import oracle
    from problems import ProblemSource

    unary = oracle.UnaryFunctions(oracle.Variety(ROOT / "varieties" / "kleene.var"))
    classes = mix.slots(unary, 20)

    def draws(seed):
        source = ProblemSource(unary, random.Random(seed))
        return [source.draw(cls) for cls in classes]

    if draws(1) != draws(1):
        return ["generator: same seed, different problems"]
    if draws(1) == draws(2):
        return ["generator: different seeds, same problems"]
    return []


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    problems = check_free_sizes() + check_generator()
    for workload in args.workloads:
        problems += check_determinism(workload, args.seed, args.seconds)
        print(f"{workload}: determinism checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
