"""Core Wheeler NFA representation, text format, validation and acceptance.

A Wheeler NFA is stored with its states already arranged in Wheeler order:
state 1 is the initial state, and the order on positions 1..n is the claimed
Wheeler order.  Whether that claim actually holds (the two edge-ordering
axioms plus reachability and co-reachability) is decided by :func:`validate`,
never by the constructor.

Symbols are interned against an :class:`OrderedAlphabet`, so edge labels are
integer ranks and every label comparison is an integer comparison.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Mapping
from functools import cached_property
from itertools import groupby, pairwise
from operator import itemgetter
from types import MappingProxyType
from typing import NoReturn


class ParseError(Exception):
    """Malformed ``.wnfa`` or ``.rel`` document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


# Stores a record field past _Record.__setattr__.  Unlike a write to
# ``self.__dict__``, it keeps the values inline in the instance: no dict is
# allocated per record, and the garbage collector scans one object, not two.
_set = object.__setattr__


class _Record:
    """An immutable value record over the fields named in ``_fields``.

    Equality, hash and repr read the fields in ``_fields`` order: two records
    are equal when they have the same class and equal fields, and the repr is
    ``Name(field=value, ...)``.  Each subclass stores its fields with
    :data:`_set` in its own ``__init__``; plain assignment and deletion raise
    AttributeError.  Instances keep a ``__dict__``, so ``cached_property``
    works.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OrderedAlphabet(_Record):
    """A finite symbol set with a fixed total order.

    ``symbols[r]`` is the token of rank ``r``; comparing ranks compares
    symbols.  Tokens are arbitrary non-empty strings without whitespace,
    which leaves room for generated symbol families such as ``#1 #2 ...``.
    """

    _fields = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        symbols = tuple(symbols)
        seen = set()
        for tok in symbols:
            if not isinstance(tok, str) or not tok or tok.split() != [tok]:
                raise ValueError(f"bad symbol token {tok!r}")
            if tok in seen:
                raise ValueError(f"duplicate symbol {tok!r}")
            seen.add(tok)
        _set(self, "symbols", symbols)

    @cached_property
    def rank(self) -> dict[str, int]:
        return {tok: r for r, tok in enumerate(self.symbols)}

    def rank_of(self, token: str) -> int:
        try:
            return self.rank[token]
        except KeyError:
            raise ValueError(f"unknown symbol {token!r}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, token: str) -> bool:
        return token in self.rank


class WheelerNfa(_Record):
    """An NFA whose states sit at positions 1..n of a claimed Wheeler order.

    Fields:
      n        -- number of states (>= 1); the initial state is position 1
      alphabet -- the ordered symbol set
      edges    -- (source, target, label-rank) triples, deduplicated and kept
                  sorted by (source, label, target)
      finals   -- accepting positions

    The constructor enforces only structural sanity (ranges, no duplicate
    edges).  Use :func:`validate` to check the Wheeler axioms and the
    reachability assumptions.
    """

    _fields = ("n", "alphabet", "edges", "finals")

    def __init__(
        self,
        n: int,
        alphabet: OrderedAlphabet,
        edges: tuple[tuple[int, int, int], ...],
        finals: frozenset[int],
    ):
        if n < 1:
            raise ValueError("state count must be >= 1")
        sigma = len(alphabet)
        edges = [tuple(e) for e in edges]
        for u, v, a in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            if not (0 <= a < sigma):
                raise ValueError(f"edge label rank {a} out of range")
        edges.sort(key=itemgetter(0, 2, 1))
        for prev, cur in zip(edges, edges[1:]):
            if prev == cur:
                u, v, a = cur
                raise ValueError(f"duplicate edge ({u}, {v}, {alphabet.symbols[a]!r})")
        finals = frozenset(finals)
        for f in finals:
            if not (1 <= f <= n):
                raise ValueError(f"final state {f} out of range 1..{n}")
        _set(self, "n", n)
        _set(self, "alphabet", alphabet)
        _set(self, "edges", tuple(edges))
        _set(self, "finals", finals)

    @classmethod
    def _from_canonical(cls, n, alphabet, edges, finals) -> "WheelerNfa":
        """Skip every check: only for fields already in their checked form.

        ``edges`` must be a tuple of in-range, duplicate-free edges strictly
        ascending in (source, label, target) order, and ``finals`` a frozenset
        inside 1..n.  Callers: :func:`parse_wnfa`, :func:`~wnfa.minimize.quotient`
        and ``wnfa equiv``, for a quotient a child process built.
        """
        a = object.__new__(cls)
        a.__dict__.update(n=n, alphabet=alphabet, edges=edges, finals=finals)
        return a


class ViolationKind(enum.Enum):
    NOT_REACHABLE = "NotReachable"
    NOT_CO_REACHABLE = "NotCoReachable"
    AXIOM2 = "Axiom2"
    AXIOM3 = "Axiom3"


class Violation(_Record):
    """One validation problem: a kind plus the offending state or edge pair."""

    _fields = ("kind", "witness")

    def __init__(self, kind: ViolationKind, witness: tuple):
        _set(self, "kind", kind)
        _set(self, "witness", witness)

    def describe(self, a: WheelerNfa) -> str:
        sym = a.alphabet.symbols

        def edge(e):
            return f"({e[0]} -> {e[1]} on {sym[e[2]]})"

        k = self.kind
        if k is ViolationKind.NOT_REACHABLE:
            return f"{k.value}: state {self.witness[0]} has no path from the initial state"
        if k is ViolationKind.NOT_CO_REACHABLE:
            return f"{k.value}: state {self.witness[0]} has no path to a final state"
        if k is ViolationKind.AXIOM2:
            e1, e2 = self.witness
            return (
                f"{k.value}: edges {edge(e1)} and {edge(e2)} order targets "
                f"{e1[1]} < {e2[1]} but labels {sym[e1[2]]} > {sym[e2[2]]}"
            )
        e1, e2 = self.witness  # the one kind left, AXIOM3
        return (
            f"{k.value}: equal-label edges {edge(e1)} and {edge(e2)} cross: "
            f"targets {e1[1]} < {e2[1]} but sources {e1[0]} > {e2[0]}"
        )


class ValidationReport(_Record):
    """Every violation :func:`validate` found, in report order."""

    _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self, a: WheelerNfa) -> str:
        if self.ok:
            return "ok"
        return "\n".join(v.describe(a) for v in self.violations)


# the map of every state without out-edges, read-only because they share it
_NO_EDGES: Mapping[int, list[int]] = MappingProxyType({})


def _successors(a: WheelerNfa) -> list[Mapping[int, list[int]]]:
    """Per-state map label-rank -> target list (index 0 unused), both ascending.

    Beyond one list slot per state, the memory follows the edges: states
    without out-edges share :data:`_NO_EDGES`.
    """
    out: list[Mapping[int, list[int]]] = [_NO_EDGES] * (a.n + 1)
    for u, edges in groupby(a.edges, itemgetter(0)):
        by_label: dict[int, list[int]] = {}
        for _, v, lab in edges:
            by_label.setdefault(lab, []).append(v)
        out[u] = by_label
    return out


def _ranks_in(a: WheelerNfa, a2: WheelerNfa) -> list[int | None]:
    """``a``'s label ranks as ``a2``'s ranks; None where ``a2`` lacks the token."""
    return [a2.alphabet.rank.get(tok) for tok in a.alphabet.symbols]


def _co_reachable(n: int, edges, finals) -> set[int]:
    """States 1..n with a path over ``edges`` into ``finals``."""
    seen = set(finals)
    stack = list(finals)
    back: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v, _ in edges:
        back[v].append(u)
    while stack:
        v = stack.pop()
        for u in back[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def validate(a: WheelerNfa) -> ValidationReport:
    """Check that the position order of ``a`` really is a Wheeler order.

    Reports every violation found:

    * a state with no path from position 1, or no path to a final state;
    * a pair of edges whose targets are ordered but whose labels are not
      (Axiom 2);
    * a pair of equally labeled edges that cross (Axiom 3).

    Axiom 2 is the non-strict form: for edges u -> v on a and u' -> v' on
    a', a < a' implies v <= v'.  The J. ACM 2023 definition uses the strict
    form (a < a' implies v < v'), under which every state has a single
    in-label; here a state may be entered by several labels, which is why
    :func:`~wnfa.minimize.compute_extrema` keeps both ``a_min`` and
    ``a_max``.

    Both axiom checks scan edges sorted by (label, target, source); a
    violating pair exists iff one exists between order-adjacent entries of
    that sorted sequence, so the checks cost O(|E| log |E|) instead of
    comparing all pairs.  Duplicate edges are not checked here: the
    constructor already rejects them.  An empty report means ``a`` is a
    Wheeler NFA whose Wheeler order is the position order.
    """
    violations: list[Violation] = []
    # reachable from 1 = co-reachable to 1 over the reversed edges
    reach = _co_reachable(a.n, ((v, u, lab) for u, v, lab in a.edges), {1})
    for u in range(1, a.n + 1):
        if u not in reach:
            violations.append(Violation(ViolationKind.NOT_REACHABLE, (u,)))
    co = _co_reachable(a.n, a.edges, a.finals)
    for u in range(1, a.n + 1):
        if u not in co:
            violations.append(Violation(ViolationKind.NOT_CO_REACHABLE, (u,)))

    # (label, target, source) order: within a label block targets ascend, so
    # Axiom 2 reduces to "targets never decrease across a label boundary" and
    # Axiom 3 to "sources never decrease when the target strictly increases
    # inside one block".
    ordered = sorted(a.edges, key=itemgetter(2, 1, 0))
    for e1, e2 in zip(ordered, ordered[1:]):
        u1, v1, a1 = e1
        u2, v2, a2 = e2
        if a1 != a2:
            if v2 < v1:
                # smaller target carries the strictly larger label
                violations.append(Violation(ViolationKind.AXIOM2, (e2, e1)))
        elif v1 < v2 and u1 > u2:
            violations.append(Violation(ViolationKind.AXIOM3, (e1, e2)))

    return ValidationReport(tuple(violations))


def is_deterministic(a: WheelerNfa) -> bool:
    # Canonical order puts edges sharing (source, label) next to each other.
    return all(p[0] != c[0] or p[2] != c[2] for p, c in pairwise(a.edges))


def accepts(a: WheelerNfa, word) -> bool:
    """Decide word membership by tracking the reachable state subset.

    ``word`` is a string (one token per character) or an iterable of tokens.
    Raises ValueError on tokens outside the alphabet.
    """
    ranks = [a.alphabet.rank_of(tok) for tok in word]
    succ = _successors(a)
    current = {1}
    for r in ranks:
        current = {v for u in current for v in succ[u].get(r, ())}
        if not current:
            return False
    return any(u in a.finals for u in current)


# --------------------------------------------------------------------------
# .wnfa text format
#
#   alphabet <tok1> <tok2> ...      (declares the symbol order, left-to-right)
#   states <n>
#   final <i1> <i2> ...             (possibly no indices)
#   edge <src> <dst> <tok>          (one line per edge, 1-based positions)
#
# Lines whose first non-blank character is '#' are comments.  The initial
# state is always position 1; an explicit "initial" line is rejected.
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")


def _lines(text: str):
    """Yield (line number, line, tokens) for each line neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), 1):
        toks = line.split()
        if toks and toks[0][0] != "#":
            yield lineno, line, toks


def _error(message: str, lineno: int, line: str, k: int = 0) -> ParseError:
    """A ParseError at token ``k`` of ``line``, whose column is found only here."""
    return ParseError(message, lineno, [m.start() for m in _TOKEN_RE.finditer(line)][k] + 1)


def _parse_int(what: str, lineno: int, line: str, toks: list[str], k: int) -> int:
    try:
        return int(toks[k], 10)
    except ValueError:
        raise _error(f"expected {what}, got {toks[k]!r}", lineno, line, k) from None


def _check_range(what: str, i: int, size: int, lineno: int, line: str, k: int) -> None:
    if not 1 <= i <= size:
        raise _error(f"{what} {i} out of range 1..{size}", lineno, line, k)


def _reject_edge(lineno, line, toks, n, finals) -> NoReturn:
    """Raise the error for an edge line the fast path refused.

    Runs the full checks in their documented order, so the message, line and
    column do not depend on which test the fast path failed first.
    """
    if finals is None:
        raise _error("edge line before final line", lineno, line)
    if len(toks) != 4:
        raise _error("edge line takes: edge <src> <dst> <tok>", lineno, line)
    # both indices parse before either is range-checked
    src = _parse_int("state index", lineno, line, toks, 1)
    dst = _parse_int("state index", lineno, line, toks, 2)
    _check_range("state index", src, n, lineno, line, 1)
    _check_range("state index", dst, n, lineno, line, 2)
    raise _error(f"unknown symbol {toks[3]!r}", lineno, line, 3)


def parse_wnfa(text: str) -> WheelerNfa:
    """Parse a ``.wnfa`` document into a :class:`WheelerNfa`.

    Raises :class:`ParseError` (with line and column) on syntax errors,
    unknown symbols, out-of-range state indices, duplicate edges, or a
    missing header.

    An edge line after the final line with two in-range indices and a known
    symbol costs one ``int()`` per index and one rank lookup; any other edge
    line is rechecked in full to name its error.  While each edge is strictly
    greater than the one before it in (source, label, target) order, as
    :func:`serialize_wnfa` writes them, no duplicate can occur, so no
    duplicate set is kept and no sort is needed.  The first edge out of that
    order starts the duplicate set from the edges read so far, and the edges
    are sorted once at the end; the constructor's checks are never rerun.
    """
    alphabet: OrderedAlphabet | None = None
    rank: dict[str, int] = {}
    n: int | None = None
    finals: frozenset[int] | None = None
    edges: list[tuple[int, int, int]] = []
    seen_edges: set[tuple[int, int, int]] | None = None
    # the last edge read, as a (source, label, target) key
    last = (0, 0, 0)

    for lineno, line, toks in _lines(text):
        kw = toks[0]
        if kw == "edge":
            try:
                src, dst, lab = int(toks[1]), int(toks[2]), rank[toks[3]]
                fast = finals is not None and len(toks) == 4 and 0 < src <= n and 0 < dst <= n
            except (IndexError, ValueError, KeyError):
                fast = False
            if not fast:
                _reject_edge(lineno, line, toks, n, finals)
            e = (src, dst, lab)
            if seen_edges is None:
                key = (src, lab, dst)
                if key > last:
                    last = key
                    edges.append(e)
                    continue
                seen_edges = set(edges)
            if e in seen_edges:
                raise _error(f"duplicate edge {src} {dst} {toks[3]}", lineno, line)
            seen_edges.add(e)
            edges.append(e)
        elif kw == "alphabet":
            if alphabet is not None:
                raise _error("repeated alphabet line", lineno, line)
            try:
                alphabet = OrderedAlphabet(tuple(toks[1:]))
            except ValueError as exc:
                raise _error(str(exc), lineno, line) from None
            rank = alphabet.rank
        elif kw == "states":
            if alphabet is None:
                raise _error("states line before alphabet line", lineno, line)
            if n is not None:
                raise _error("repeated states line", lineno, line)
            if len(toks) != 2:
                raise _error("states line takes exactly one count", lineno, line)
            n = _parse_int("state count", lineno, line, toks, 1)
            if n < 1:
                raise _error("state count must be >= 1", lineno, line, 1)
        elif kw == "final":
            if n is None:
                raise _error("final line before states line", lineno, line)
            if finals is not None:
                raise _error("repeated final line", lineno, line)
            acc = set()
            for k in range(1, len(toks)):
                i = _parse_int("state index", lineno, line, toks, k)
                _check_range("state index", i, n, lineno, line, k)
                acc.add(i)
            finals = frozenset(acc)
        elif kw == "initial":
            raise _error(
                "unsupported 'initial' line: the initial state is always position 1",
                lineno,
                line,
            )
        else:
            raise _error(f"unknown directive {kw!r}", lineno, line)

    for value, name in ((alphabet, "alphabet"), (n, "states"), (finals, "final")):
        if value is None:
            raise ParseError(f"missing {name} line", len(text.splitlines()) + 1)
    if seen_edges is not None:
        edges.sort(key=itemgetter(0, 2, 1))
    return WheelerNfa._from_canonical(n, alphabet, tuple(edges), finals)


def serialize_wnfa(a: WheelerNfa) -> str:
    """Render the canonical ``.wnfa`` document for ``a``.

    The alphabet line lists symbols in rank order and edges come sorted by
    (source, label, target), so equal automata serialize identically and
    ``parse_wnfa(serialize_wnfa(a)) == a``.
    """
    lines = [
        ("alphabet " + " ".join(a.alphabet.symbols)).rstrip(),
        f"states {a.n}",
        ("final " + " ".join(str(i) for i in sorted(a.finals))).rstrip(),
    ]
    for u, v, lab in a.edges:
        lines.append(f"edge {u} {v} {a.alphabet.symbols[lab]}")
    return "\n".join(lines) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(a: WheelerNfa) -> str:
    """Graphviz rendering: one node per position, double circle for finals."""
    out = ["digraph wnfa {", "  rankdir=LR;"]
    for i in range(1, a.n + 1):
        shape = "doublecircle" if i in a.finals else "circle"
        out.append(f"  {i} [shape={shape}];")
    for u, v, lab in a.edges:
        out.append(f"  {u} -> {v} [label={_dot_quote(a.alphabet.symbols[lab])}];")
    out.append("}")
    return "\n".join(out) + "\n"
