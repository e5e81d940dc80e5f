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
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import accumulate, groupby, islice, repeat
from operator import itemgetter, le, lt, ne, or_


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
    ``Name(field=value, ...)``.  The one constructor binds its arguments to
    ``_fields`` as a call would, fills the last fields left out from
    ``_defaults`` and stores each with :data:`_set`; plain assignment and
    deletion raise AttributeError.  Instances keep a ``__dict__``, so
    ``cached_property`` works.  OrderedAlphabet, WheelerNfa, Relation and
    BoundaryBits copy their fields from any iterable, a generator included,
    and check them in their own ``__init__``, then hand the checked values
    to this one, so their callers build no copy first; Violation, built
    once per bad state, stores its two fields itself, which is faster.
    WheelerNfa, whose edge fields are lists, has its own hash and repr.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        name, fields = self.__class__.__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields {fields}, got {len(args)}")
        values = dict(zip(fields[len(fields) - len(self._defaults) :], self._defaults))
        values.update(zip(fields, args))
        for f, value in kwargs.items():
            if f not in fields:
                raise TypeError(f"{name}() got an unknown field {f!r}")
            if f in fields[: len(args)]:
                raise TypeError(f"{name}() got field {f!r} twice")
            values[f] = value
        for f in fields:
            if f not in values:
                raise TypeError(f"{name}() missing field {f!r}")
            _set(self, f, values[f])

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

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        seen = set()
        for tok in symbols:
            if not isinstance(tok, str) or not tok or tok.split() != [tok]:
                raise ValueError(f"bad symbol token {tok!r}")
            if tok in seen:
                raise ValueError(f"duplicate symbol {tok!r}")
            seen.add(tok)
        super().__init__(symbols)

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
      sources, targets, labels
               -- the edges as three equally long lists, one entry per edge:
                  edge k runs from ``sources[k]`` to ``targets[k]`` on label
                  rank ``labels[k]``; deduplicated and sorted by (source,
                  label, target).  Read-only: they are shared, not copied.
      accepting
               -- the accepting positions as a tuple, ascending and without
                  repeats

    The constructor takes the edges as (source, target, label-rank) triples
    in any order, and the accepting positions as any iterable, and enforces
    only structural sanity (ranges, no duplicate edges).  Use
    :func:`validate` to check the Wheeler axioms and the reachability
    assumptions.  :attr:`edges` gives the triples back and :attr:`finals`
    the accepting positions as a frozenset; the repr shows both, and
    equality and hash read the columns and ``accepting``.
    """

    _fields = ("n", "alphabet", "sources", "targets", "labels", "accepting")

    def __init__(
        self,
        n: int,
        alphabet: OrderedAlphabet,
        edges: Iterable[tuple[int, int, int]],
        finals: Iterable[int],
    ):
        if n < 1:
            raise ValueError("state count must be >= 1")
        sigma = len(alphabet)
        keys = []  # (source, label, target): canonical order is their sort order
        for u, v, a in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            if not (0 <= a < sigma):
                raise ValueError(f"edge label rank {a} out of range")
            keys.append((u, a, v))
        keys.sort()
        for prev, cur in zip(keys, islice(keys, 1, None)):
            if prev == cur:
                u, a, v = cur
                raise ValueError(f"duplicate edge ({u}, {v}, {alphabet.symbols[a]!r})")
        finals = frozenset(finals)
        for f in finals:
            if not (1 <= f <= n):
                raise ValueError(f"final state {f} out of range 1..{n}")
        sources, labels, targets = _columns(keys)
        super().__init__(n, alphabet, sources, targets, labels, tuple(sorted(finals)))

    @classmethod
    def _from_canonical(cls, n, alphabet, sources, targets, labels, accepting) -> "WheelerNfa":
        """Skip every check: only for fields already in their checked form.

        ``sources``, ``targets`` and ``labels`` must be lists holding
        in-range, duplicate-free edges strictly ascending in (source, label,
        target) order, and ``accepting`` a tuple of positions inside 1..n,
        strictly ascending.  Callers: both paths of :func:`parse_wnfa`,
        :func:`~wnfa.minimize.quotient`, the quotient from class
        representatives that :func:`~wnfa.minimize.minimize` builds, and
        ``wnfa equiv``, for a quotient a child process built.
        """
        a = object.__new__(cls)
        a.__dict__.update(zip(cls._fields, (n, alphabet, sources, targets, labels, accepting)))
        return a

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The (source, target, label-rank) triples in canonical order.

        Built from the columns the first time it is read, for callers that
        want one object per edge; in this package only the repr reads it.
        """
        return tuple(zip(self.sources, self.targets, self.labels))

    @cached_property
    def finals(self) -> frozenset[int]:
        """The accepting positions as a frozenset.

        Built from :attr:`accepting` the first time it is read, for callers
        that test membership or combine sets; in this package only the repr
        reads it.
        """
        return frozenset(self.accepting)

    def __hash__(self):
        columns = map(tuple, (self.sources, self.targets, self.labels))
        return hash((self.n, self.alphabet, *columns, self.accepting))

    def __repr__(self):
        return (
            f"{self.__class__.__qualname__}(n={self.n!r}, alphabet={self.alphabet!r}, "
            f"edges={self.edges!r}, finals={self.finals!r})"
        )


def _runs(values) -> tuple:
    """The first value of each run of equal neighbours: ascending values without repeats."""
    return tuple(map(itemgetter(0), groupby(values)))


def _columns(triples) -> tuple[list[int], list[int], list[int]]:
    """The first, second and third entries of a list of triples, as three lists."""
    return tuple(list(map(itemgetter(k), triples)) for k in range(3))


class ViolationKind(enum.Enum):
    NOT_REACHABLE = "NotReachable"
    NOT_CO_REACHABLE = "NotCoReachable"
    AXIOM2 = "Axiom2"
    AXIOM3 = "Axiom3"


class Violation(_Record):
    """One validation problem: a kind plus the offending state or edge pair."""

    _fields = ("kind", "witness")

    # Its own constructor, as validate builds one record per bad state (599,998
    # for a 44-byte file): under CPython 3.11 it took 0.52 us a record, the
    # shared one 2.7 us, and the shared one with a positional fast path 0.94 us.
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

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self, a: WheelerNfa) -> str:
        if self.ok:
            return "ok"
        return "\n".join(v.describe(a) for v in self.violations)


def _out_starts(a: WheelerNfa) -> list[int]:
    """Per-state offsets into the edge columns, n + 2 of them, index 0 unused.

    State u's out-edges sit at positions ``starts[u]`` to ``starts[u + 1] - 1``
    of every column, labels ascending, and targets ascending within a label.
    """
    starts = [0] * (a.n + 2)
    for u in a.sources:
        starts[u + 1] += 1
    return list(accumulate(starts))


def _final_flags(a: WheelerNfa) -> bytearray:
    """Flags over 0..n: 1 at each accepting position."""
    flags = bytearray(a.n + 1)
    # __setitem__ returns None, so any() runs the map to its end, in C
    any(map(flags.__setitem__, a.accepting, repeat(1)))
    return flags


def _ranks_in(a: WheelerNfa, a2: WheelerNfa) -> list[int | None]:
    """``a``'s label ranks as ``a2``'s ranks; None where ``a2`` lacks the token."""
    return [a2.alphabet.rank.get(tok) for tok in a.alphabet.symbols]


def _co_reachable(n: int, sources, targets, start) -> bytearray:
    """Flags over 0..n: 1 for each state with a path into ``start``.

    The path runs over the edges ``sources[i] -> targets[i]``; index 0 is
    always 0.  With the two columns swapped, the flags mark the states
    reachable from ``start``.
    """
    back: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in zip(sources, targets):
        back[v].append(u)
    seen = bytearray(n + 1)
    stack = list(start)
    for v in stack:
        seen[v] = 1
    while stack:
        for u in back[stack.pop()]:
            if not seen[u]:
                seen[u] = 1
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

    Both axioms are checked at once by one linear scan of the target and
    label columns (:func:`_axioms_hold`).  Only when it fails are the edges
    sorted by (label, target, source) to name each violating pair.
    Duplicate edges are not checked here: the constructor already rejects
    them.  An empty report means ``a`` is a Wheeler NFA whose Wheeler order
    is the position order.
    """
    violations: list[Violation] = []
    sources, targets = a.sources, a.targets
    # reachable from 1 = co-reachable to 1 over the reversed edges
    for kind, seen in (
        (ViolationKind.NOT_REACHABLE, _co_reachable(a.n, targets, sources, (1,))),
        (ViolationKind.NOT_CO_REACHABLE, _co_reachable(a.n, sources, targets, a.accepting)),
    ):
        u = seen.find(0, 1)
        while u != -1:
            violations.append(Violation(kind, (u,)))
            u = seen.find(0, u + 1)
    if not _axioms_hold(targets, a.labels, len(a.alphabet)):
        violations += _axiom_violations(zip(sources, targets, a.labels))
    return ValidationReport(tuple(violations))


def _axioms_hold(targets, labels, sigma: int) -> bool:
    """Whether canonically ordered edges satisfy Axioms 2 and 3.

    The edges are given by their target and label columns, labels below
    ``sigma``.  Sorted stably by label, each label block would keep the
    canonical (source, target) order, and both axioms hold iff the targets
    never decrease along that sequence: inside a block this is Axiom 3,
    across a block boundary Axiom 2.  So one pass checks that each label's
    targets ascend, and a second that none lies below the greatest target
    of a smaller label, with no sort and nothing allocated per edge.
    """
    top = [0] * sigma  # top[r]: the last, so greatest, target on label r so far
    for v, r in zip(targets, labels):
        if v < top[r]:
            return False
        top[r] = v
    floor = list(accumulate(top, max, initial=0))  # floor[r]: the greatest below label r
    return all(map(le, map(floor.__getitem__, labels), targets))


def _axiom_violations(edges) -> list[Violation]:
    """Every Axiom 2 and Axiom 3 violation between order-adjacent edges.

    In (label, target, source) order a violating pair exists iff one exists
    between adjacent entries.  Within a label block targets ascend, so
    Axiom 2 reduces to "targets never decrease across a label boundary" and
    Axiom 3 to "sources never decrease when the target strictly increases
    inside one block".
    """
    violations = []
    ordered = sorted(edges, key=itemgetter(2, 1, 0))
    for e1, e2 in zip(ordered, ordered[1:]):
        u1, v1, a1 = e1
        u2, v2, a2 = e2
        if a1 != a2:
            if v2 < v1:
                # smaller target carries the strictly larger label
                violations.append(Violation(ViolationKind.AXIOM2, (e2, e1)))
        elif v1 < v2 and u1 > u2:
            violations.append(Violation(ViolationKind.AXIOM3, (e1, e2)))
    return violations


def is_deterministic(a: WheelerNfa) -> bool:
    # Canonical order puts edges sharing (source, label) next to each other.
    s, lab = a.sources, a.labels
    return all(map(or_, map(ne, s, islice(s, 1, None)), map(ne, lab, islice(lab, 1, None))))


def accepts(a: WheelerNfa, word) -> bool:
    """Decide word membership by tracking the reachable state subset.

    ``word`` is a string (one token per character) or an iterable of tokens.
    Raises ValueError on tokens outside the alphabet.
    """
    ranks = [a.alphabet.rank_of(tok) for tok in word]
    starts, t, lab = _out_starts(a), a.targets, a.labels
    current = {1}
    for r in ranks:
        current = {t[k] for u in current for k in range(starts[u], starts[u + 1]) if lab[k] == r}
        if not current:
            return False
    return not current.isdisjoint(a.accepting)


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


def parse_wnfa(text: str) -> WheelerNfa:
    """Parse a ``.wnfa`` document into a :class:`WheelerNfa`.

    Raises :class:`ParseError` (with line and column) on syntax errors,
    unknown symbols, out-of-range state indices, duplicate edges, or a
    missing header.

    A document shaped like :func:`serialize_wnfa`'s output is read by
    columns: the three header lines (alphabet, states, final), then only
    lines ``edge <src> <dst> <tok>`` with single spaces, a final newline,
    in-range indices, known symbols (none named ``edge``), and edges
    strictly ascending in (source, label, target) order.  Every other
    document, and every error, goes to the line parser, which checks each
    line in full, so results and errors do not depend on which path ran.
    """
    a = _parse_columns(text)
    return _parse_lines(text) if a is None else a


# characters of edge block that one column pass reads, cut at a newline
_CHUNK = 1 << 16


def _parse_columns(text: str) -> WheelerNfa | None:
    """The automaton of a canonical document, or None for any other text.

    The header goes through :func:`_parse_lines`.  The edge block is read in
    place, about :data:`_CHUNK` characters at a time: one ``split`` per
    chunk, ``int`` over the source and target columns, one rank lookup per
    label, and one strictly ascending check over (source, label, target)
    tuples, carried from chunk to chunk.  Then the sources ascend too, so
    the range check reads the first and last source and the targets'
    ``min``/``max``.  Each chunk's three columns extend the automaton's,
    with one int object per state index: the first read, or the accepting
    position's, which a dict of those read so far hands out again.

    A chunk ends with a newline; say it has m of them.  It passes only with
    4m tokens and exactly 3m spaces and m newlines of whitespace: as each
    token is followed by whitespace, every run of it is one character, so no
    line is blank or indented, and no other character ends a line.  Every
    line starts with ``edge``, which is no index and, by the header check,
    no symbol.  So the source, target and label columns (every fourth token
    from the second, third and fourth on) fail on a line's first token
    unless every line starts at a multiple of four tokens, that is, holds
    four.  Then these are exactly the lines :func:`_parse_lines` would read.
    """
    end = 0
    for _ in range(3):
        end = text.find("\n", end) + 1
        if not end:
            return None
    try:
        head = _parse_lines(text[:end])
    except ParseError:
        return None
    if head.sources or "edge" in head.alphabet:
        return None
    n = head.n
    rank = head.alphabet.rank
    accepting = head.accepting
    ints = dict(zip(accepting, accepting))  # state index -> its one int object
    sources: list[int] = []
    targets: list[int] = []
    labels: list[int] = []
    last: tuple = ()  # the key of the last edge read; () sorts below every key
    while end < len(text):
        stop = text.rfind("\n", end, end + _CHUNK) + 1 or text.find("\n", end) + 1
        if not stop:
            return None
        chunk = text[end:stop]
        end = stop
        toks = chunk.split()
        m = chunk.count("\n")
        if (
            len(toks) != 4 * m
            or chunk.count(" ") != 3 * m
            or len(chunk) - len("".join(toks)) != 4 * m
            or toks[0] != "edge"
            or chunk.count("\nedge ") != m - 1
        ):
            return None
        try:
            src = list(map(int, toks[1::4]))
            dst = list(map(int, toks[2::4]))
            lab = list(map(rank.__getitem__, toks[3::4]))
        except (ValueError, KeyError):
            return None
        keys = list(zip(src, lab, dst))
        if keys[0] <= last or not all(map(lt, keys, islice(keys, 1, None))):
            return None
        last = keys[-1]
        # the keys ascend, so the sources do too
        if src[0] < 1 or src[-1] > n or min(dst) < 1 or max(dst) > n:
            return None
        sources += map(ints.setdefault, src, src)
        targets += map(ints.setdefault, dst, dst)
        labels += lab
    return WheelerNfa._from_canonical(n, head.alphabet, sources, targets, labels, accepting)


def _parse_lines(text: str) -> WheelerNfa:
    """The line parser: any document, every error with its line and column.

    Every edge line is checked in full.  A dict of the edges read, in order,
    finds duplicates, so the first error in the document is the one raised;
    the edges are sorted once at the end and split into columns, and the
    constructor's checks are never rerun.
    """
    alphabet: OrderedAlphabet | None = None
    rank: dict[str, int] = {}
    n: int | None = None
    accepting: tuple[int, ...] | None = None
    edges: dict[tuple[int, int, int], None] = {}  # (source, label, target) keys

    for lineno, line, toks in _lines(text):
        kw = toks[0]
        if kw == "edge":
            if accepting is None:
                raise _error("edge line before final line", lineno, line)
            if len(toks) != 4:
                raise _error("edge line takes: edge <src> <dst> <tok>", lineno, line)
            # both indices parse before either is range-checked
            src = _parse_int("state index", lineno, line, toks, 1)
            dst = _parse_int("state index", lineno, line, toks, 2)
            _check_range("state index", src, n, lineno, line, 1)
            _check_range("state index", dst, n, lineno, line, 2)
            lab = rank.get(toks[3])
            if lab is None:
                raise _error(f"unknown symbol {toks[3]!r}", lineno, line, 3)
            key = (src, lab, dst)
            if key in edges:
                raise _error(f"duplicate edge {src} {dst} {toks[3]}", lineno, line)
            edges[key] = None
        elif kw == "alphabet":
            if alphabet is not None:
                raise _error("repeated alphabet line", lineno, line)
            try:
                alphabet = OrderedAlphabet(toks[1:])
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
            if accepting is not None:
                raise _error("repeated final line", lineno, line)
            try:
                accepting = _runs(sorted(map(int, toks[1:])))
            except ValueError:
                accepting = None
            if accepting is None or (accepting and not (1 <= accepting[0] and accepting[-1] <= n)):
                # the first bad index, with its column
                for k in range(1, len(toks)):
                    i = _parse_int("state index", lineno, line, toks, k)
                    _check_range("state index", i, n, lineno, line, k)
        elif kw == "initial":
            raise _error(
                "unsupported 'initial' line: the initial state is always position 1",
                lineno,
                line,
            )
        else:
            raise _error(f"unknown directive {kw!r}", lineno, line)

    for value, name in ((alphabet, "alphabet"), (n, "states"), (accepting, "final")):
        if value is None:
            raise ParseError(f"missing {name} line", len(text.splitlines()) + 1)
    ordered = sorted(edges)
    del edges
    sources, labels, targets = _columns(ordered)
    return WheelerNfa._from_canonical(n, alphabet, sources, targets, labels, accepting)


# Lines per block of text that :func:`_blocks` hands a writer
_BLOCK = 1 << 12


def _blocks(lines) -> Iterator[str]:
    """The strings ``lines`` yields, joined in blocks of up to ``_BLOCK``.

    A writer that takes one block at a time never holds the whole text, nor
    one object per line, and a caller that wants the text joins the blocks.
    """
    lines = iter(lines)
    while block := "".join(islice(lines, _BLOCK)):
        yield block


def _wnfa_blocks(a: WheelerNfa) -> Iterator[str]:
    """The canonical ``.wnfa`` document for ``a``, block by block."""
    symbols = a.alphabet.symbols
    yield ("alphabet " + " ".join(symbols)).rstrip() + f"\nstates {a.n}\nfinal"
    # block by block too: built whole, it would hold one string per accepting position
    yield from _blocks(f" {p}" for p in a.accepting)
    yield "\n"
    yield from _blocks(
        f"edge {u} {v} {symbols[lab]}\n" for u, v, lab in zip(a.sources, a.targets, a.labels)
    )


def serialize_wnfa(a: WheelerNfa) -> str:
    """Render the canonical ``.wnfa`` document for ``a``.

    The alphabet line lists symbols in rank order and edges come sorted by
    (source, label, target), so equal automata serialize identically and
    ``parse_wnfa(serialize_wnfa(a)) == a``.
    """
    return "".join(_wnfa_blocks(a))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_blocks(a: WheelerNfa) -> Iterator[str]:
    """The Graphviz rendering of ``a``, block by block."""
    labels = [_dot_quote(s) for s in a.alphabet.symbols]
    shapes, final = ("circle", "doublecircle"), _final_flags(a)
    yield "digraph wnfa {\n  rankdir=LR;\n"
    yield from _blocks(f"  {i} [shape={shapes[final[i]]}];\n" for i in range(1, a.n + 1))
    yield from _blocks(
        f"  {u} -> {v} [label={labels[lab]}];\n"
        for u, v, lab in zip(a.sources, a.targets, a.labels)
    )
    yield "}\n"


def to_dot(a: WheelerNfa) -> str:
    """Graphviz rendering: one node per position, double circle for finals."""
    return "".join(_dot_blocks(a))
