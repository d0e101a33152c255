"""DOT rendering for congruence lattices and solution posets."""

from __future__ import annotations

from .algebra import Congruence, poset_covers
from .solver import classify_all, congruence_name
from .variety import VarietyContext

__all__ = ["congruence_lattice_dot", "congruence_poset_dot"]


def _congruence_dot(congruences, name: str, decorate) -> str:
    items = sorted(congruences, key=Congruence.sort_key)
    covers = poset_covers(items, lambda a, b: a.leq(b))
    lines = [f'digraph "{name}" {{', "  rankdir=BT;", "  node [shape=box];"]
    for i, theta in enumerate(items):
        label, style = decorate(theta)
        lines.append(f'  c{i} [label="{label}"{style}];')
    for i, j in covers:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def congruence_lattice_dot(ctx: VarietyContext, bound: int = 2,
                           name: str = "con") -> str:
    """The congruence lattice of F(1) with projective congruences doubled
    and non-exact ones dashed."""
    cls = classify_all(ctx, bound)

    def decorate(theta):
        label = congruence_name(ctx, theta)
        c = cls[theta]
        if c.projective.status == "yes":
            return label, ", peripheries=2"
        if c.exact.status == "no":
            return label, ", style=dashed"
        return label, ""

    return _congruence_dot(cls.keys(), name, decorate)


def congruence_poset_dot(ctx: VarietyContext, congruences,
                         highlight=None, name: str = "poset") -> str:
    """A plain congruence poset; the optional highlight set is doubled."""
    highlight = set(highlight or ())

    def decorate(theta):
        label = congruence_name(ctx, theta)
        return label, (", peripheries=2" if theta in highlight else "")

    return _congruence_dot(congruences, name, decorate)
