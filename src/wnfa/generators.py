"""Wheeler NFA families: deterministic fixtures and a seeded random generator."""

from __future__ import annotations

from operator import itemgetter

from .automaton import OrderedAlphabet, WheelerNfa, _co_reachable


def gen_chain(k: int) -> WheelerNfa:
    """A k-state unary chain: self-loop on state 1, edges i -> i+1, finals {1, k}.

    All chains recognize a*, yet chains of different lengths are not
    Wheeler-bisimilar, which makes the family a stock counterexample.
    """
    if k < 3:
        raise ValueError("chain length must be >= 3")
    edges = [(1, 1, 0)] + [(i, i + 1, 0) for i in range(1, k)]
    return WheelerNfa(k, OrderedAlphabet("a"), edges, {1, k})


def gen_distinctness(text) -> WheelerNfa:
    """The (n+2)-state Wheeler DFA encoding a symbol sequence ``text``.

    The base alphabet is the distinct symbols of ``text``, sorted.  Fresh
    symbols ``#1 .. #n`` are prepended to it, ordered before every base
    symbol.  State 1 fans out to state 1+i on ``#i``, and
    state 1+i reads ``text[i]`` into the single final state n+2.  Two states
    1+i and 1+j can only ever be merged when text[i] == text[j].
    """
    letters = list(text)
    n = len(letters)
    if n == 0:
        raise ValueError("text must be non-empty")
    alphabet = OrderedAlphabet([f"#{i}" for i in range(1, n + 1)] + sorted(set(letters)))
    edges = []
    for i, tok in enumerate(letters, 1):
        edges.append((1, 1 + i, alphabet.rank_of(f"#{i}")))
        edges.append((1 + i, n + 2, alphabet.rank_of(tok)))
    return WheelerNfa(n + 2, alphabet, edges, {n + 2})


def _symbol_pool(sigma: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [*letters[:sigma], *(f"s{i}" for i in range(len(letters), sigma))]


def _below(getrandbits, w: int) -> int:
    """A uniform draw from range(w): w.bit_length() bits at a time until one is below w."""
    if w < 1:
        raise ValueError(f"width must be >= 1, got {w}")
    k = w.bit_length()
    r = getrandbits(k)
    while r >= w:
        r = getrandbits(k)
    return r


def gen_random_wheeler(
    n: int,
    edges_per_label_target: int,
    sigma: int,
    seed: int,
    deterministic: bool = False,
) -> WheelerNfa:
    """A valid random Wheeler NFA, deterministic for a fixed seed.

    Construction is label-by-label.  Positions 2..n are split into at most
    ``sigma`` consecutive runs; the in-edges of every state in a run carry
    that run's label, and run labels increase with position, which gives
    Axiom 2.  Within one label the per-target source sets are chosen with a
    non-decreasing floor, so equally labeled edges never cross (Axiom 3).
    A run may additionally reuse the last target of its predecessor, giving
    some states two distinct incoming labels, and the very first run may
    include state 1 as a self-loop target so that automata where the initial
    state has in-edges are exercised too.  Every state keeps one in-edge from
    a strictly smaller source, which makes all states reachable; any state
    that cannot reach the final set afterwards is itself marked final.

    With ``deterministic=True`` each (source, label) pair is used at most
    once and the result is a Wheeler DFA.

    Integers are drawn from ``getrandbits`` by the rule ``randint`` uses
    inside CPython, so a seed gives the same document on CPython 3.10-3.13.

    Raises ValueError when ``n``, ``edges_per_label_target`` or ``sigma``
    is below 1.
    """
    # imported here, so that importing the package does not load random
    import random

    epl = edges_per_label_target
    for name, value in (("n", n), ("edges_per_label_target", epl), ("sigma", sigma)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits

    alphabet = OrderedAlphabet(_symbol_pool(sigma))
    if n == 1:
        edges = [(1, 1, 0)] if rand() < 0.5 else []
        return WheelerNfa(1, alphabet, edges, {1})

    # Consecutive label runs over positions 2..n.
    n_labels = 1 + _below(getrandbits, min(sigma, n - 1))
    cut_points = sorted(rng.sample(range(3, n + 1), n_labels - 1)) if n_labels > 1 else []
    starts = [2] + cut_points
    ends = cut_points + [n + 1]
    label_ranks = sorted(rng.sample(range(sigma), n_labels))

    edges: list[tuple[int, int, int]] = []
    append = edges.append
    for run_idx, (start, end, lab) in enumerate(zip(starts, ends, label_ranks)):
        if run_idx > 0 and not deterministic and rand() < 0.35:
            # Reuse the previous run's last target: that state then has two
            # distinct in-labels, which Axiom 2 permits at a run boundary.
            start -= 1
        elif run_idx == 0 and not deterministic and rand() < 0.3:
            append((1, 1, lab))  # a self-loop on state 1 keeps the floor at 1

        floor = 1
        for t in range(start, end):
            # One source strictly below the target keeps t reachable.
            top = base = floor + _below(getrandbits, t - floor)
            extra = _below(getrandbits, epl) + (rand() < 0.3)
            if extra:
                w = (n if t == end - 1 else t - 1 if deterministic else t) - base + 1
                sources = {base}
                for _ in range(extra):
                    sources.add(base + _below(getrandbits, w))
                for top in sorted(sources):  # top ends on the largest source
                    append((top, t, lab))
            else:
                append((base, t, lab))
            floor = top + 1 if deterministic else top

    finals = {n} | {i for i in range(1, n + 1) if rand() < 0.3}

    # Co-reachability repair: anything that cannot reach a final state is
    # made final itself.
    co = _co_reachable(n, map(itemgetter(0), edges), map(itemgetter(1), edges), finals)
    finals |= {i for i in range(1, n + 1) if not co[i]}

    # distinct by construction: each target of a run gets one set of sources,
    # and a target shared by two runs gets the two runs' distinct labels
    return WheelerNfa(n, alphabet, edges, finals)
