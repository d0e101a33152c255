"""The mix of problem classes in the solve workloads, measured on the
unconstrained generator.

    python3 perfbench/mix.py [VARIETY ...]      # prints the census and slots

A problem's solving cost is set almost entirely by the exact factors
E(t) = F(1)/ker(t) of its terms, so the class of a problem is its variable
count and the multiset of its terms' kernels.  ``census`` draws CENSUS
problems from the generator of ``problems.py`` (2 to 5 terms, depth at most
3, 1 to 3 variables) with a fixed seed, not the workload seed, and counts
each class.  ``slots`` then takes a systematic sample of the classes,
ordered by factor product size: slot j is the class at cumulative share
(j + 1/2) / n, so each class gets slots in proportion to its share, to
within one, and the slots are shuffled with a fixed seed.  A workload
pass draws one problem per slot, with fresh terms from the workload seed,
so every seed pays for the same mix.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from pathlib import Path

from oracle import UnaryFunctions, Variety
from problems import NAMES, random_problem

CENSUS = 4000
CENSUS_SEED = 0


def census(unary: UnaryFunctions, samples: int = CENSUS) -> tuple[Counter, dict]:
    """Counts of each class (variable count, sorted kernels), and each
    kernel's factor size."""
    rng = random.Random(CENSUS_SEED)
    counts = Counter()
    sizes = {}
    for _ in range(samples):
        k, terms = random_problem(rng, unary.variety)
        kernels = [unary.kernel(t) for t in terms]
        for kernel in kernels:
            sizes[kernel] = len(set(kernel))
        counts[(k, tuple(sorted(kernels)))] += 1
    return counts, sizes


def product_size(cls, sizes) -> int:
    return math.prod(sizes[kernel] for kernel in cls[1])


def slots(unary: UnaryFunctions, n: int) -> list:
    """``n`` classes in proportion to their census shares, in a fixed
    shuffled order, so that classes of like cost are spread over a pass
    rather than met in one stretch of it."""
    counts, sizes = census(unary)
    order = sorted(counts, key=lambda cls: (product_size(cls, sizes), cls))
    total = sum(counts.values())
    out = []
    cumulative = 0
    for cls in order:
        cumulative += counts[cls]
        while len(out) < n and (len(out) + 0.5) / n * total < cumulative:
            out.append(cls)
    random.Random(CENSUS_SEED).shuffle(out)
    return out


def main(argv) -> None:
    root = Path(__file__).resolve().parent.parent
    for name in argv or ["boolean", "kleene", "godel3", "n3"]:
        unary = UnaryFunctions(Variety(root / "varieties" / f"{name}.var"))
        counts, sizes = census(unary)
        by_size = Counter()
        by_terms = Counter()
        for cls, c in counts.items():
            by_size[product_size(cls, sizes)] += c
            by_terms[len(cls[1])] += c
        share = sum(c for s, c in by_size.items() if s <= 128) / CENSUS
        print(f"{name}: {len(counts)} classes over {len(sizes)} kernels "
              f"(factor sizes {sorted(sizes.values())}); product <= 128: "
              f"{share:.3f}; terms: "
              + ", ".join(f"{n}: {c / CENSUS:.3f}" for n, c in sorted(by_terms.items())))
        print("  product size shares: " + ", ".join(
            f"{s}: {c / CENSUS:.3f}" for s, c in sorted(by_size.items())))


if __name__ == "__main__":
    main(sys.argv[1:])
