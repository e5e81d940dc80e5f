"""Wheeler NFA families: deterministic fixtures and a seeded random generator."""

from __future__ import annotations

import random
import string

from .automaton import OrderedAlphabet, WheelerNfa, _co_reachable


def gen_chain(k: int) -> WheelerNfa:
    """A k-state unary chain: self-loop on state 1, edges i -> i+1, finals {1, k}.

    All chains recognize a*, yet chains of different lengths are not
    Wheeler-bisimilar, which makes the family a stock counterexample.
    """
    if k < 3:
        raise ValueError("chain length must be >= 3")
    alphabet = OrderedAlphabet(("a",))
    edges = [(1, 1, 0)] + [(i, i + 1, 0) for i in range(1, k)]
    return WheelerNfa(k, alphabet, tuple(edges), frozenset({1, k}))


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
    base_symbols = tuple(sorted(set(letters)))
    alphabet = OrderedAlphabet(tuple(f"#{i}" for i in range(1, n + 1)) + base_symbols)
    edges = []
    for i, tok in enumerate(letters, 1):
        edges.append((1, 1 + i, alphabet.rank_of(f"#{i}")))
        edges.append((1 + i, n + 2, alphabet.rank_of(tok)))
    return WheelerNfa(n + 2, alphabet, tuple(edges), frozenset({n + 2}))


def _symbol_pool(sigma: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    if sigma <= len(letters):
        return tuple(letters[:sigma])
    return tuple(letters) + tuple(f"s{i}" for i in range(len(letters), sigma))


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

    Raises ValueError when ``n``, ``edges_per_label_target`` or ``sigma``
    is below 1.
    """
    epl = edges_per_label_target
    for name, value in (("n", n), ("edges_per_label_target", epl), ("sigma", sigma)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = random.Random(seed)

    alphabet = OrderedAlphabet(_symbol_pool(sigma))
    if n == 1:
        edges = ((1, 1, 0),) if rng.random() < 0.5 else ()
        return WheelerNfa(1, alphabet, edges, frozenset({1}))

    # Consecutive label runs over positions 2..n.
    n_labels = rng.randint(1, min(sigma, n - 1))
    cut_points = sorted(rng.sample(range(3, n + 1), n_labels - 1)) if n_labels > 1 else []
    starts = [2] + cut_points
    ends = cut_points + [n + 1]
    label_ranks = sorted(rng.sample(range(sigma), n_labels))

    edges: list[tuple[int, int, int]] = []
    for run_idx, (start, end, lab) in enumerate(zip(starts, ends, label_ranks)):
        targets = list(range(start, end))
        if run_idx > 0 and not deterministic and rng.random() < 0.35:
            # Reuse the previous run's last target: that state then has two
            # distinct in-labels, which Axiom 2 permits at a run boundary.
            targets = [start - 1] + targets
        elif run_idx == 0 and not deterministic and rng.random() < 0.3:
            targets = [1] + targets

        floor = 1
        for pos, t in enumerate(targets):
            is_last = pos == len(targets) - 1
            if t == 1:
                sources = [1]  # forced self-loop keeps the floor at 1
            else:
                # One source strictly below the target keeps t reachable.
                base = rng.randint(floor, t - 1)
                if deterministic:
                    hi = n if is_last else t - 1
                else:
                    hi = n if is_last else t
                sources = {base}
                extra = rng.randint(0, epl - 1) + (1 if rng.random() < 0.3 else 0)
                for _ in range(extra):
                    if base > hi:
                        break
                    sources.add(rng.randint(base, hi))
                sources = sorted(sources)
            edges.extend((u, t, lab) for u in sources)
            floor = sources[-1] + 1 if deterministic else sources[-1]

    finals = {n} | {i for i in range(1, n + 1) if rng.random() < 0.3}

    # Co-reachability repair: anything that cannot reach a final state is
    # made final itself.
    co = _co_reachable(n, edges, finals)
    finals |= {i for i in range(1, n + 1) if i not in co}

    return WheelerNfa(n, alphabet, tuple(dict.fromkeys(edges)), frozenset(finals))
