"""Spans and counters around the program's public functions.

The wrappers are installed from outside the package, on every name a
caller looks up: a function is replaced in each ``algen`` module that
binds it (``algen.solver.min_generators`` as well as
``algen.algebra.min_generators``), a method on its class.  Each call opens
a span whose parent is the innermost open span, so a span's self time
excludes its traced children.  A generator such as ``enumerate_homs`` is
timed across the iteration of its results, one span per step, because its
call only builds the generator.  Spans are aggregated in memory by name
and by (parent, name) edge and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

ROOT = "bench"


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.edges = Counter()
        self.counts = Counter()
        self._stack = [[ROOT, 0.0]]
        self._seen_free = weakref.WeakSet()

    def call(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            parent = self._stack[-1]
            parent[1] += duration
            self.self_s[name] += duration - frame[1]
            self.edges[(parent[0], name)] += 1

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span of its own, for the benchmark's root spans."""
        self.calls[name] += 1
        return self.call(name, fn, args, kwargs)

    def iterate(self, name, gen):
        while True:
            try:
                item = self.call(name, next, (gen,), {})
            except StopIteration:
                return
            self.counts[name + ".yielded"] += 1
            yield item

    def span_table(self) -> list:
        parents = defaultdict(dict)
        for (parent, name), n in sorted(self.edges.items()):
            parents[name][parent] = n
        return [{"name": name, "calls": self.calls[name],
                 "self_s": self.self_s[name], "parents": parents[name]}
                for name in sorted(self.calls) if self.calls[name]]


# -- counters read off results ------------------------------------------------


def _count_product(tracer, result):
    tracer.counts["algebra.product_elements"] += result[0].size


def _count_free(tracer, result):
    if result not in tracer._seen_free:
        tracer._seen_free.add(result)
        tracer.counts["variety.free_elements"] += result.size


def _count_report(tracer, report):
    tracer.counts["solver.verdicts." + report.type.kind] += 1
    tracer.counts["solver.mcsg_entries"] += len(report.mcsg)
    # the shortcut ran when it got past the product-size cap and built the
    # product, whatever it then found (projective, not projective, or
    # skipped for want of generators or for the budget)
    shortcut = report.shortcut
    if not (shortcut.get("status") == "skipped"
            and shortcut.get("reason", "").startswith("product has")):
        tracer.counts["solver.shortcut_runs"] += 1
        # the verdict depends on it only outside 1EP; in a 1EP variety its
        # answer feeds a consistency check and is discarded
        if report.ep.status != "yes":
            tracer.counts["solver.shortcut_useful"] += 1


# (span name, module, attribute, counter hook); "Class.method" attributes
# are patched on the class, plain functions in every module that binds them
TARGETS = [
    ("varfile.load_variety", "algen.varfile", "load_variety", None),
    ("terms.parse_term", "algen.terms", "parse_term", None),
    ("variety.free_algebra", "algen.variety", "VarietyContext.free_algebra",
     _count_free),
    ("variety.generated_by_terms", "algen.variety",
     "VarietyContext.generated_by_terms", None),
    ("variety.holds_identity", "algen.variety",
     "VarietyContext.holds_identity", None),
    ("algebra.direct_product", "algen.algebra", "direct_product",
     _count_product),
    ("algebra.min_generators", "algen.algebra", "min_generators", None),
    ("algebra.enumerate_homs", "algen.algebra", "enumerate_homs", None),
    ("algebra.congruence_lattice", "algen.algebra", "congruence_lattice", None),
    ("algebra.principal_congruence", "algen.algebra", "principal_congruence",
     None),
    ("solver.alg_of", "algen.solver", "alg_of", None),
    ("solver.classify_all", "algen.solver", "classify_all", None),
    ("solver.classify_congruence", "algen.solver", "classify_congruence",
     None),
    ("solver.g_congruences", "algen.solver", "g_congruences", None),
    ("solver.symbolic_solution", "algen.solver", "symbolic_solution", None),
    ("solver.congruence_name", "algen.solver", "congruence_name", None),
    ("solver.solve", "algen.solver", "solve", _count_report),
    ("solver.report_to_dict", "algen.solver", "GeneralizationReport.to_dict",
     None),
    ("kleene.dual_poset", "algen.kleene", "dual_poset", None),
    ("cli.main", "algen.cli", "main", None),
]

GENERATORS = {"algebra.enumerate_homs"}


def _wrapper(tracer, name, fn, hook):
    if name in GENERATORS:
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer.iterate(name, fn(*args, **kwargs))
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer, result)
        return result
    return traced


class Patches:
    """Context manager, reusable: wraps every target for ``tracer`` on
    entry and restores the originals on exit.  The bindings are found
    once, on construction."""

    def __init__(self, tracer: Tracer):
        self.bindings = []
        for name, modname, attr, hook in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = vars(owner)[meth]
                self.bindings.append(
                    (owner, meth, orig, _wrapper(tracer, name, orig, hook)))
                continue
            orig = getattr(module, attr)
            wrapped = _wrapper(tracer, name, orig, hook)
            for modname2, mod in list(sys.modules.items()):
                if modname2 == "algen" or modname2.startswith("algen."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self.bindings.append((mod, key, orig, wrapped))

    def __enter__(self):
        for owner, attr, _, wrapped in self.bindings:
            setattr(owner, attr, wrapped)

    def __exit__(self, *exc):
        for owner, attr, orig, _ in self.bindings:
            setattr(owner, attr, orig)
        return False


SPANS = {name for name, _, _, _ in TARGETS}

COUNTERS = {"algebra.product_elements", "algebra.enumerate_homs.yielded",
            "variety.free_elements", "solver.verdicts.unitary",
            "solver.verdicts.finitary", "solver.verdicts.inconclusive",
            "solver.mcsg_entries", "solver.shortcut_runs",
            "solver.shortcut_useful"}


def layer_metrics(tracer: Tracer, names) -> dict:
    """Values of the declared per-layer metrics this tracer measures:
    ``<span>.s`` and ``<span>.self_s`` are self time, ``<span>.calls`` the
    call count, and the counters are read off results."""
    values = {}
    for metric in names:
        span, _, field = metric.rpartition(".")
        if span in SPANS and field in ("s", "self_s"):
            values[metric] = tracer.self_s[span]
        elif span in SPANS and field == "calls":
            values[metric] = tracer.calls[span]
        elif metric in COUNTERS:
            values[metric] = tracer.counts[metric]
    # no runs means no wasted runs: a gate that stops them all reads 1
    runs = tracer.counts["solver.shortcut_runs"]
    values["solver.shortcut_useful_ratio"] = (
        tracer.counts["solver.shortcut_useful"] / runs if runs else 1.0)
    return values
