"""Seeded workloads and the known answers their outputs are checked against.

Each workload is a triple of automata: ``a`` (the input of validate and
minimize), ``b`` (Wheeler-bisimilar to ``a``, so ``equiv a b`` exits 0) and
``b_neg`` (not Wheeler-bisimilar to ``a``, so ``equiv a b_neg`` exits 1).
Where the quotient of ``a`` is known by construction, the workload carries
it; every minimize output is also checked semantically against ``a``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

from wnfa import (
    OrderedAlphabet,
    ParseError,
    Relation,
    WheelerNfa,
    gen_chain,
    gen_random_wheeler,
    is_bisimulation,
    minimize,
    parse_wnfa,
    serialize_wnfa,
    validate,
)

# Sizes are chosen so that one round of the four CLI commands takes a few
# seconds on two cores, which gives enough rounds per run for steady medians.
RANDOM_N = 20_000
RANDOM_EPL = 2
RANDOM_SIGMA = 8
STAIRCASE_BASE_N = 5_000
STAIRCASE_COPIES = 4
CHAIN_N = 20_000
CHAIN_M = 30

ONE_STATE_LOOP = "alphabet a\nstates 1\nfinal 1\nedge 1 1 a\n"


@dataclass(frozen=True)
class Workload:
    a: WheelerNfa
    b: WheelerNfa
    b_neg: WheelerNfa
    # Serialized quotient of ``a`` and its class map, when known by
    # construction rather than by running minimize on ``a``.
    expected_quotient: str | None
    expected_class_map: tuple[int, ...] | None


def _make_one_final(x: WheelerNfa, rng: random.Random) -> WheelerNfa:
    """``x`` with one non-final state made final.

    Reachability and co-reachability survive and the Wheeler axioms do not
    involve finality, so the result still validates.
    """
    non_final = [p for p in range(1, x.n + 1) if p not in x.finals]
    if not non_final:
        raise ValueError("every state is already final")
    return WheelerNfa(x.n, x.alphabet, x.edges, x.finals | {rng.choice(non_final)})


def staircase(base: WheelerNfa, copies: int) -> tuple[WheelerNfa, list[int]]:
    """Replace every state but 1 by ``copies`` adjacent copies.

    For each (target, label) group of ``base`` edges, the L source copies in
    position order are wired to the C target copies by a monotone,
    non-crossing staircase: source copy s reaches target copies
    s*C//L .. ((s+1)*C-1)//L.  Both sides are covered, so reachability and
    co-reachability hold, and the Wheeler order survives when ``base`` is
    deterministic (an NFA source feeding two equal-label targets would make
    the copies cross).  Every copy is Wheeler-bisimilar to its original, so
    the result has the quotient of ``base``.

    Returns the automaton and ``origin``, where ``origin[p - 1]`` is the base
    state of position p.
    """
    first = [0] * (base.n + 1)
    count = [0] * (base.n + 1)
    origin: list[int] = []
    for v in range(1, base.n + 1):
        first[v] = len(origin) + 1
        count[v] = 1 if v == 1 else copies
        origin.extend([v] * count[v])

    groups: dict[tuple[int, int], list[int]] = defaultdict(list)
    for u, v, lab in base.edges:
        groups[(v, lab)].append(u)
    edges = []
    for (t, lab), sources in groups.items():
        src_copies = [p for u in sorted(sources) for p in range(first[u], first[u] + count[u])]
        big_l, big_c = len(src_copies), count[t]
        for s, p in enumerate(src_copies):
            for k in range(s * big_c // big_l, ((s + 1) * big_c - 1) // big_l + 1):
                edges.append((p, first[t] + k, lab))
    finals = frozenset(p for p, v in enumerate(origin, 1) if v in base.finals)
    return WheelerNfa(len(origin), base.alphabet, tuple(edges), finals), origin


def looped_chain(n: int) -> WheelerNfa:
    """All-final unary chain 1 -> 2 -> ... -> n with a self-loop on n.

    Every state accepts a^*, so the whole chain merges into one state.
    """
    edges = [(i, i + 1, 0) for i in range(1, n)] + [(n, n, 0)]
    return WheelerNfa(n, OrderedAlphabet(("a",)), tuple(edges), frozenset(range(1, n + 1)))


def random_nfa(seed: int, scale: float = 1.0) -> Workload:
    a = gen_random_wheeler(int(RANDOM_N * scale), RANDOM_EPL, RANDOM_SIGMA, seed)
    b = minimize(a).quotient
    return Workload(a, b, _make_one_final(b, random.Random(seed)), None, None)


def staircase_dfa(seed: int, scale: float = 1.0) -> Workload:
    base = gen_random_wheeler(
        int(STAIRCASE_BASE_N * scale), RANDOM_EPL, RANDOM_SIGMA, seed, deterministic=True
    )
    a, origin = staircase(base, STAIRCASE_COPIES)
    known = minimize(base)
    class_map = tuple(known.class_map[v - 1] for v in origin)
    b_neg = _make_one_final(base, random.Random(seed))
    return Workload(a, base, b_neg, serialize_wnfa(known.quotient), class_map)


def merge_chain(seed: int, scale: float = 1.0) -> Workload:
    # The family has no random choice; the seed is accepted for uniformity.
    a = looped_chain(int(CHAIN_N * scale))
    return Workload(
        a, looped_chain(CHAIN_M), gen_chain(CHAIN_M), ONE_STATE_LOOP, (1,) * a.n
    )


FAMILIES = {
    "random-nfa": random_nfa,
    "staircase-dfa": staircase_dfa,
    "merge-chain": merge_chain,
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Generate workload ``name`` and validate every automaton it uses."""
    w = FAMILIES[name](seed, scale)
    for label, x in (("A", w.a), ("B", w.b), ("B'", w.b_neg)):
        report = validate(x)
        if not report.ok:
            raise ValueError(f"{name} seed {seed}: generated {label} does not validate")
    return w


def parse_class_map(text: str) -> list[int]:
    """Read ``class <in> <out>`` lines; input positions must run 1, 2, ...."""
    out = []
    for p, line in enumerate(text.splitlines(), 1):
        kw, pos, cls = line.split()
        if kw != "class" or int(pos) != p:
            raise ValueError(f"class map line {p} is {line!r}")
        out.append(int(cls))
    return out


def check_minimize_output(w: Workload, q_text: str, map_text: str) -> str | None:
    """Why a ``wnfa minimize`` output is wrong for ``w``, or None if it is right.

    Always: the quotient parses and validates, the class map is monotone and
    onto, and the class-map relation is a bisimulation from ``a`` to the
    quotient.  When known by construction, the quotient bytes and the class
    map must also equal the known answer.
    """
    try:
        q = parse_wnfa(q_text)
        class_map = parse_class_map(map_text)
    except (ParseError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if not validate(q).ok:
        return "quotient does not validate"
    if len(class_map) != w.a.n or class_map[0] != 1 or class_map[-1] != q.n:
        return "class map does not cover every state or every class"
    if any(c2 - c1 not in (0, 1) for c1, c2 in zip(class_map, class_map[1:])):
        return "class map is not monotone and onto"
    rel = Relation(w.a.n, q.n, frozenset(enumerate(class_map, 1)))
    failure = is_bisimulation(w.a, q, rel)
    if failure is not None:
        return f"class map is not a bisimulation: {failure.describe()}"
    if w.expected_quotient is not None and q_text != w.expected_quotient:
        return "quotient differs from the known answer"
    if w.expected_class_map is not None and tuple(class_map) != w.expected_class_map:
        return "class map differs from the known answer"
    return None
