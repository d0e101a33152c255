"""Seeded generalization problems, made without the program under test.

A problem is 2 to 5 random terms of depth at most 3 over the first 1 to 3
of the variables x, y, w (``random_problem``).  Its solving cost is set
almost entirely by the exact factors E(t) = F(1)/ker(t) of its terms, so the
workloads draw problems by *class*, the variable count and the kernel of
each term (see ``mix.py``): the seed draws fresh random terms until each
lands in its class, which keeps the inputs different from seed to seed
while every seed gets the same mix of algebraic situations.  Kernels are
computed by ``oracle.UnaryFunctions``.
"""

from __future__ import annotations

import random

from oracle import UnaryFunctions, Variety

DEPTH = 3
TERMS = (2, 5)
NAMES = ("x", "y", "w")
MAX_TRIES = 20000


def random_term(rng: random.Random, variety: Variety, names, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(list(names) + [(c,) for c in variety.constants])
    op, arity = rng.choice(variety.functions)
    return (op, *(random_term(rng, variety, names, depth - 1)
                  for _ in range(arity)))


def random_problem(rng: random.Random, variety: Variety) -> tuple[int, list]:
    """(variable count, terms) of one problem of the unconstrained generator."""
    count = rng.randint(*TERMS)
    k = rng.randint(1, len(NAMES))
    return k, [random_term(rng, variety, NAMES[:k], DEPTH) for _ in range(count)]


class ProblemSource:
    """Problems of given classes over one variety, drawn from one stream."""

    def __init__(self, unary: UnaryFunctions, rng: random.Random):
        self.unary = unary
        self.rng = rng

    def draw(self, cls) -> list:
        """Terms for the class (variable count, kernels), in kernel order."""
        k, kernels = cls
        terms = []
        for want in kernels:
            for _ in range(MAX_TRIES):
                t = random_term(self.rng, self.unary.variety, NAMES[:k], DEPTH)
                if self.unary.kernel(t) == want:
                    terms.append(t)
                    break
            else:
                raise RuntimeError("problem class not reached by random terms")
        return terms
