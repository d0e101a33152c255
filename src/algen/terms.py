"""Signatures, first-order terms, substitutions, and the syntactic lgg baseline.

Terms are immutable trees over a fixed signature.  The canonical printer
emits prefix form only; a small amount of infix sugar is accepted on input
(see ``parse_term``).
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence, Union

__all__ = [
    "Signature",
    "Term",
    "Var",
    "App",
    "Substitution",
    "TermError",
    "ParseError",
    "parse_term",
    "infer_signature",
    "term_to_str",
    "term_size",
    "term_rank",
    "term_vars",
    "apply_subst",
    "lgg_syntactic",
]

# Variable names g1, g2, ... are reserved for generalization variables
# minted by lgg_syntactic; the parser rejects them as user variables.
_MINTED_RE = re.compile(r"^g[0-9]+$")

# The names the engine gives variables: x1, x2, ... (F(n)'s generators),
# z and z1, z2, ... (generalizers' variables) and g1, g2, ... (lgg's).  An
# operation may not take one, or a printed term would read two ways.
_RESERVED_OP_RE = re.compile(r"^(z|[gxz][0-9]+)$")

_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")

# The deepest nesting parse_term accepts, in brackets and in applications
# alike.  A bracket or argument level costs the parser eight stack frames
# (nested, parse_infix once per _INFIX level and once below the last,
# parse_not and parse_atom), a → or ¬ level two, and the recursive walkers
# (eval, term_to_str, term_rank, apply_subst) two, so every accepted term
# fits Python's default recursion limit.
MAX_DEPTH = 100

# Infix sugar accepted on input; each symbol maps to a signature op name.
_SUGAR = {"∧": "and", "∨": "or", "¬": "not",
          "→": "imp", "+": "plus", "⊕": "oplus"}

# The binary sugar's precedence levels, loosest first, as (symbols,
# right-associative).  Symbols are tuples: peek() gives "" at the end of
# input, which a string would contain.
_INFIX = ((("→",), True), (("+", "⊕"), False), (("∨",), False),
          (("∧",), False))


class TermError(ValueError):
    """Malformed term, signature, or substitution."""


class ParseError(TermError):
    """Syntax or arity error in term input, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class _Value:
    """Read-only fields, named in ``_fields`` and held in that order in ``_values``,
    by which a value compares (with its class), hashes, prints and is copied."""

    __slots__ = ("_values",)

    def _init(self, *values) -> None:
        _set_values(self, values)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, *value):
        verb = "assign to" if value else "delete"
        raise AttributeError(f"cannot {verb} field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__
    __reduce__ = lambda self: (type(self), self._values)


class Signature(_Value):
    """An ordered list of operation symbols with arities.

    The order is fixed at construction and used for deterministic
    tie-breaking wherever terms are ranked.
    """

    __slots__ = _fields = ("ops",)

    def __init__(self, ops: tuple[tuple[str, int], ...]):
        self._init(ops)
        seen = set()
        for name, arity in ops:
            if not name or not _IDENT_RE.fullmatch(name):
                raise TermError(f"bad operation name {name!r}")
            if _RESERVED_OP_RE.match(name):
                raise TermError(f"operation name {name!r} is reserved for "
                                "variables")
            if name in seen:
                raise TermError(f"duplicate operation name {name!r}")
            if arity < 0:
                raise TermError(f"negative arity for {name!r}")
            seen.add(name)

    @classmethod
    def make(cls, ops: Sequence[tuple[str, int]]) -> "Signature":
        return cls(tuple((str(n), int(a)) for n, a in ops))

    def arity(self, name: str) -> int:
        for n, a in self.ops:
            if n == name:
                return a
        raise TermError(f"unknown operation {name!r}")

    def has_op(self, name: str) -> bool:
        return any(n == name for n, _ in self.ops)

    def op_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.ops):
            if n == name:
                return i
        raise TermError(f"unknown operation {name!r}")


class Var(_Value):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set_values(self, (name,))
        _set_name(self, name)

    def __str__(self) -> str:
        return self.name


class App(_Value):
    __slots__ = _fields = ("op", "args")

    def __init__(self, op: str, args: tuple["Term", ...] = ()):
        _set_values(self, (op, args))
        _set_op(self, op)
        _set_args(self, args)

    def __str__(self) -> str:
        return term_to_str(self)

Term = Union[Var, App]


def term_to_str(t: Term) -> str:
    """Canonical prefix printer; nullary operations print bare."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return f"{t.op}({','.join(term_to_str(a) for a in t.args)})"


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_vars(t: Term, acc: list[str] | None = None) -> list[str]:
    """Variable names in first-occurrence order."""
    if acc is None:
        acc = []
    if isinstance(t, Var):
        if t.name not in acc:
            acc.append(t.name)
    else:
        for a in t.args:
            term_vars(a, acc)
    return acc


def term_rank(t: Term, sig: Signature) -> tuple:
    """Total order key: size first, then preorder node codes.

    Variables sort before operations; operations sort by signature order;
    variables sort by (length, name) so x2 < x10.
    """
    codes: list[tuple] = []

    def walk(u: Term):
        if isinstance(u, Var):
            codes.append((0, len(u.name), u.name))
        else:
            codes.append((1, sig.op_index(u.op)))
            for a in u.args:
                walk(a)

    walk(t)
    return len(codes), tuple(codes)


def check_term(t: Term, sig: Signature, names: list[str] | None = None) -> None:
    """Raise TermError unless every App matches the signature's arity.
    Given ``names``, the same walk appends t's variable names to it, as
    ``term_vars`` does."""
    if isinstance(t, App):
        if sig.arity(t.op) != len(t.args):
            raise TermError(
                f"operation {t.op!r} expects {sig.arity(t.op)} arguments, got {len(t.args)}")
        for a in t.args:
            check_term(a, sig, names)
    elif names is not None and t.name not in names:
        names.append(t.name)


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    """Recursive-descent parser with precedence for the infix sugar.

    One routine reads every binary level of ``_INFIX``, loosest first:
    imp, then plus/oplus, or and and; imp is right-associative, the rest
    left-associative.  Prefix not binds tighter than all of them.

    Given ``arities``, the parser records each application's arity there
    instead of checking it against ``sig``, and leaves sugar unchecked.
    """

    def __init__(self, src: str, sig: Signature,
                 arities: dict[str, int] | None = None):
        self.src = src
        self.sig = sig
        self.arities = arities
        self.pos = 0  # character position
        self.level = 0  # brackets, argument lists and operands open
        self.depths: dict[int, int] = {}  # id of each App built -> its depth

    def byte_offset(self, pos: int | None = None) -> int:
        p = self.pos if pos is None else pos
        return len(self.src[:p].encode("utf-8"))

    def error(self, message: str, pos: int | None = None):
        raise ParseError(message, self.byte_offset(pos))

    def too_deep(self, pos: int | None = None):
        self.error(f"term nested deeper than {MAX_DEPTH} levels", pos)

    def nested(self, parse, *args) -> Term:
        """Run a sub-parser one nesting level deeper."""
        if self.level == MAX_DEPTH:
            self.too_deep()
        self.level += 1
        t = parse(*args)
        self.level -= 1
        return t

    def app(self, name: str, args, pos: int) -> App:
        """An application, refused when it nests deeper than the limit
        (left-associative chains deepen a term without nesting the parse)."""
        depth = 1 + max([self.depths.get(id(a), 0) for a in args], default=0)
        if depth > MAX_DEPTH:
            self.too_deep(pos)
        t = App(name, tuple(args))
        self.depths[id(t)] = depth
        return t

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def sugar_op(self, symbol: str, want_arity: int) -> str:
        name = _SUGAR[symbol]
        if self.arities is not None:
            return name
        if not self.sig.has_op(name):
            self.error(f"unknown operation {symbol!r} (no {name!r} in signature)")
        if self.sig.arity(name) != want_arity:
            self.error(f"operation {name!r} has arity {self.sig.arity(name)}, "
                       f"cannot be used as {symbol!r}")
        return name

    def parse(self) -> Term:
        t = self.parse_infix()
        self.skip_ws()
        if self.pos < len(self.src):
            self.error("unexpected trailing input")
        return t

    def parse_infix(self, tier: int = 0) -> Term:
        """The binary sugar from ``_INFIX[tier]`` down, ¬ below the last."""
        if tier == len(_INFIX):
            return self.parse_not()
        symbols, right = _INFIX[tier]
        t = self.parse_infix(tier + 1)
        while self.peek() in symbols:
            sym, start = self.peek(), self.pos
            self.pos += 1
            name = self.sugar_op(sym, 2)
            if right:  # the operand nests the parse, the chain is done
                return self.app(name, (t, self.nested(self.parse_infix, tier)),
                                start)
            t = self.app(name, (t, self.parse_infix(tier + 1)), start)
        return t

    def parse_not(self) -> Term:
        if self.peek() == "¬":
            start = self.pos
            self.pos += 1
            name = self.sugar_op("¬", 1)
            return self.app(name, (self.nested(self.parse_not),), start)
        return self.parse_atom()

    def parse_atom(self) -> Term:
        ch = self.peek()
        if ch == "(":
            self.eat("(")
            t = self.nested(self.parse_infix)
            if self.peek() != ")":
                self.error("unbalanced parenthesis")
            self.eat(")")
            return t
        m = _IDENT_RE.match(self.src, self.pos)
        if not m:
            self.error("expected identifier or '('")
        name = m.group(0)
        name_pos = self.pos
        self.pos = m.end()
        if self.peek() == "(":
            self.eat("(")
            args = []
            if self.peek() != ")":
                args.append(self.nested(self.parse_infix))
                while self.peek() == ",":
                    self.eat(",")
                    args.append(self.nested(self.parse_infix))
            if self.peek() != ")":
                self.error("unbalanced parenthesis")
            self.eat(")")
            if self.arities is not None:
                if self.arities.setdefault(name, len(args)) != len(args):
                    self.error(f"operation {name!r} used with arities "
                               f"{self.arities[name]} and {len(args)}", name_pos)
            elif not self.sig.has_op(name):
                self.error(f"unknown operation {name!r}", name_pos)
            elif self.sig.arity(name) != len(args):
                self.error(f"operation {name!r} expects {self.sig.arity(name)} "
                           f"arguments, got {len(args)}", name_pos)
            return self.app(name, args, name_pos)
        if self.sig.has_op(name):
            if self.sig.arity(name) != 0:
                self.error(f"operation {name!r} expects "
                           f"{self.sig.arity(name)} arguments, got 0", name_pos)
            return self.app(name, (), name_pos)
        if _MINTED_RE.match(name):
            self.error(f"variable name {name!r} is reserved for minted "
                       "generalization variables", name_pos)
        return Var(name)


def parse_term(src: str, sig: Signature) -> Term:
    """Parse a term.  Identifiers naming signature ops become applications
    (nullary ops may be written bare); all other identifiers are variables.
    """
    return _Parser(src, sig).parse()


def infer_signature(sources: Sequence[str]) -> Signature:
    """The signature that makes every applied identifier in the sources an
    operation of the arity it is applied with.  Infix sugar adds nothing:
    parsing with the result checks it."""
    arities: dict[str, int] = {}
    for src in sources:
        _Parser(src, Signature(()), arities).parse()
    return Signature.make(sorted(arities.items()))


# ---------------------------------------------------------------------------
# Substitutions


class Substitution(_Value):
    """Finite map from variable names to terms; unbound variables are fixed."""

    __slots__ = _fields = ("bindings",)

    def __init__(self, bindings: tuple[tuple[str, Term], ...]):
        _set_values(self, (bindings,))
        _set_bindings(self, bindings)

    @classmethod
    def make(cls, mapping: Mapping[str, Term]) -> "Substitution":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def empty(cls) -> "Substitution":
        return cls(())

    def get(self, name: str) -> Term:
        for n, t in self.bindings:
            if n == name:
                return t
        return Var(name)

    def compose(self, other: "Substitution") -> "Substitution":
        """self after other: apply(self.compose(other), t) = apply(self, apply(other, t))."""
        out = {n: apply_subst(self, t) for n, t in other.bindings}
        for n, t in self.bindings:
            out.setdefault(n, t)
        return Substitution.make(out)

    def __str__(self) -> str:
        inner = ", ".join(f"{n} -> {term_to_str(t)}" for n, t in self.bindings)
        return "{" + inner + "}"


# the slots' setters, which pass _Value's guard: the classes built often (Var,
# App, Substitution and Congruence) store their fields through these, the rest
# through _init
_set_values, _set_name, _set_op, _set_args, _set_bindings = (
    _Value._values.__set__, Var.name.__set__, App.op.__set__, App.args.__set__,
    Substitution.bindings.__set__)


def apply_subst(s: Substitution, t: Term) -> Term:
    if isinstance(t, Var):
        return s.get(t.name)
    return App(t.op, tuple(apply_subst(s, a) for a in t.args))


# ---------------------------------------------------------------------------
# Syntactic least general generalization (anti-unification)


def lgg_syntactic(ts: Sequence[Term]) -> tuple[Term, list[Substitution]]:
    """Plotkin-style syntactic lgg of a nonempty list of terms.

    Generalization variables are minted g1, g2, ... in first-occurrence
    order; identical tuples of mismatched subterms reuse the same variable.
    Returns the generalizer and one witnessing substitution per input.
    """
    if not ts:
        raise TermError("lgg of an empty list")
    ts = list(ts)
    minted: dict[tuple[Term, ...], str] = {}

    def go(parts: tuple[Term, ...]) -> Term:
        first = parts[0]
        if all(p == first for p in parts):
            return first
        if (all(isinstance(p, App) for p in parts)
                and len({(p.op, len(p.args)) for p in parts}) == 1):
            width = len(first.args)
            return App(first.op,
                       tuple(go(tuple(p.args[i] for p in parts)) for i in range(width)))
        if parts not in minted:
            minted[parts] = f"g{len(minted) + 1}"
        return Var(minted[parts])

    g = go(tuple(ts))
    witnesses = [Substitution.make({v: parts[k] for parts, v in minted.items()})
                 for k in range(len(ts))]
    return g, witnesses
