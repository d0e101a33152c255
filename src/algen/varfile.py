"""Variety files: a JSON document describing a signature and its finite
generating algebras.

Layout:

    {
      "name": "kleene",
      "signature": [["and", 2], ["or", 2], ["not", 1], ["0", 0], ["1", 0]],
      "algebras": [
        {
          "name": "K3",
          "universe": ["0", "a", "1"],
          "ops": {
            "and": [["0","0","0"],["0","a","a"],["0","a","1"]],
            "not": ["1","a","0"],
            "0": "0",
            ...
          }
        }
      ]
    }

Tables are nested lists of element labels, row-major: a table of arity k is
nested k deep and the outermost index is the first argument.  Nullary
operations are a bare label.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import FiniteAlgebra
from .terms import Signature, TermError
from .variety import VarietySpec

__all__ = ["VarFileError", "load_variety", "loads_variety", "dump_variety"]


class VarFileError(ValueError):
    """Malformed variety file; message carries the JSON path."""


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise VarFileError(f"{path}: {message}")


def _parse_table(node, arity: int, index: dict[str, int], path: str):
    """A table of labels as the same nested layout of element indices."""
    if not arity:
        _expect(isinstance(node, str), path, "expected an element label")
        _expect(node in index, path, f"unknown element label {node!r}")
        return index[node]
    _expect(isinstance(node, list), path, "expected a nested list")
    _expect(len(node) == len(index), path,
            f"expected {len(index)} rows, got {len(node)}")
    return [_parse_table(child, arity - 1, index, f"{path}[{i}]")
            for i, child in enumerate(node)]


def _label_table(table, arity: int, labels: tuple[str, ...]):
    """A table of element indices as the same nested layout of labels."""
    if not arity:
        return labels[table]
    return [_label_table(row, arity - 1, labels) for row in table]


def loads_variety(text: str, origin: str = "<string>") -> VarietySpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise VarFileError(f"{origin}: not valid JSON: {e}") from e
    _expect(isinstance(doc, dict), origin, "top level must be an object")
    name = doc.get("name")
    _expect(isinstance(name, str) and bool(name), "name", "must be a nonempty string")

    sig_node = doc.get("signature")
    _expect(isinstance(sig_node, list) and sig_node, "signature",
            "must be a nonempty list of [name, arity] pairs")
    ops = []
    for i, entry in enumerate(sig_node):
        p = f"signature[{i}]"
        _expect(isinstance(entry, list) and len(entry) == 2, p,
                "must be a [name, arity] pair")
        op, arity = entry
        _expect(isinstance(op, str), p, "operation name must be a string")
        # JSON's true and false load as int subclasses
        _expect(type(arity) is int and arity >= 0, p,
                "arity must be a non-negative integer")
        ops.append((op, arity))
    try:
        sig = Signature.make(ops)
    except TermError as e:
        raise VarFileError(f"signature: {e}") from e

    algs_node = doc.get("algebras")
    _expect(isinstance(algs_node, list) and algs_node, "algebras",
            "at least one generating algebra is required")
    algebras = []
    for i, anode in enumerate(algs_node):
        p = f"algebras[{i}]"
        _expect(isinstance(anode, dict), p, "must be an object")
        aname = anode.get("name", f"A{i}")
        _expect(isinstance(aname, str) and bool(aname), f"{p}.name",
                "must be a nonempty string")
        _expect(all(a.name != aname for a in algebras), f"{p}.name",
                f"duplicate algebra name {aname!r}")
        universe = anode.get("universe")
        _expect(isinstance(universe, list) and universe, f"{p}.universe",
                "must be a nonempty list of labels")
        _expect(all(isinstance(x, str) for x in universe), f"{p}.universe",
                "labels must be strings")
        _expect(len(set(universe)) == len(universe), f"{p}.universe",
                "labels must be unique")
        index = {lab: k for k, lab in enumerate(universe)}
        ops_node = anode.get("ops")
        _expect(isinstance(ops_node, dict), f"{p}.ops", "must be an object")
        tables = {}
        for op, arity in sig.ops:
            _expect(op in ops_node, f"{p}.ops", f"missing table for {op!r}")
            tables[op] = _parse_table(ops_node[op], arity, index,
                                      f"{p}.ops.{op}")
        extra = set(ops_node) - {op for op, _ in sig.ops}
        _expect(not extra, f"{p}.ops", f"tables for unknown operations {sorted(extra)}")
        # _parse_table checked every shape and label, naming its JSON path
        algebras.append(FiniteAlgebra._trusted(sig, universe, tables, aname))
    return VarietySpec(name, sig, tuple(algebras))


def load_variety(path: str | Path) -> VarietySpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise VarFileError(f"cannot read {p}: {e}") from e
    return loads_variety(text, origin=str(p))


def dump_variety(spec: VarietySpec) -> str:
    """Serialize back to the file format (stable key and row order)."""
    doc = {
        "name": spec.name,
        "signature": [[op, arity] for op, arity in spec.sig.ops],
        "algebras": [
            {
                "name": a.name or f"A{i}",
                "universe": list(a.labels),
                "ops": {op: _label_table(a.tables[op], arity, a.labels)
                        for op, arity in spec.sig.ops},
            }
            for i, a in enumerate(spec.generators)
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
