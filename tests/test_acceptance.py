"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite progresses.  Every tolerance is exact; the only reported-not-asserted
quantity is the empirical growth exponent of the minimization pipeline.
"""

import itertools
import math
import random
import statistics
import time

from wnfa import (
    Relation,
    boundary_bits,
    compose,
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    inverse,
    is_bisimulation,
    is_deterministic,
    is_wheeler_bisimulation,
    minimize,
    order_respecting_iso,
    validate,
    wheeler_bisimilar,
)
from wnfa.minimize import TRACE_DEQUEUE
from wnfa.reference import max_standard_autobisimulation, oracle_max_wheeler_autobisimulation

from conftest import (
    build,
    dfa_language_bisimulation,
    gen_equal_language_dfa_pair,
    image,
    is_convex,
    language_sample_equal,
    preimage,
    union,
    unorderable_three_state,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_oracle_equivalence():
    rng = random.Random(0xC0FFEE)
    mismatches = []
    trials = 600
    for _ in range(trials):
        a = gen_random_wheeler(
            rng.randint(1, 14), rng.randint(1, 3), rng.randint(1, 4), rng.randrange(2**30)
        )
        assert validate(a).ok
        fast = boundary_bits(a)
        slow = oracle_max_wheeler_autobisimulation(a)
        if fast != slow:
            mismatches.append((a, fast, slow))
    report(
        1,
        "boundary bits equal the brute-force oracle bit-for-bit",
        not mismatches,
        f"{trials} random automata, n <= 14",
    )


def test_criterion_02_two_level_tree_reproduction(two_level_tree):
    plain_ok = max_standard_autobisimulation(two_level_tree) == (1, 2, 2, 3, 4, 3, 4, 5)
    wheeler_ok = all(boundary_bits(two_level_tree).bits)
    report(
        2,
        "plain bisimulation merges pairwise, order-respecting keeps singletons",
        plain_ok and wheeler_ok,
    )


def test_criterion_03_branchy_reproduction(branchy, branchy_variant, branchy_relation):
    standard_ok = is_bisimulation(branchy, branchy_variant, branchy_relation) is None
    failure = is_wheeler_bisimulation(branchy, branchy_variant, branchy_relation)
    wheeler_ok = (
        failure is not None
        and failure.rule == "image-convexity"
        and failure.interval == (4, 4)
        and failure.image == frozenset({2, 4})
    )
    unorderable_ok = all(
        any(v.kind.value == "Axiom2" for v in validate(candidate).violations)
        for candidate in unorderable_three_state()
    )
    report(
        3,
        "five-pair relation passes plain, fails convexity at {4}; merged 3-state "
        "variant admits no Wheeler order",
        standard_ok and wheeler_ok and unorderable_ok,
    )


def test_criterion_04_chain_family():
    ok = True
    for h in range(3, 9):
        for k in range(h + 1, 9):
            verdict = wheeler_bisimilar(gen_chain(h), gen_chain(k))
            same_language = language_sample_equal(gen_chain(h), gen_chain(k), 8)
            ok = ok and not verdict.bisimilar and same_language
    report(4, "chains: equal language, never Wheeler-bisimilar", ok, "3 <= h < k <= 8")


def test_criterion_05_quotient_idempotence_and_validity():
    rng = random.Random(0xBEEF)
    ok = True
    for _ in range(200):
        a = gen_random_wheeler(
            rng.randint(1, 12), rng.randint(1, 3), rng.randint(1, 4), rng.randrange(2**30)
        )
        result = minimize(a)
        ok = ok and validate(result.quotient).ok
        again = minimize(result.quotient)
        ok = ok and again.class_map == tuple(range(1, result.quotient.n + 1))
        ok = ok and is_wheeler_bisimulation(a, result.quotient, result.as_relation()) is None
        if not ok:
            break
    report(5, "quotients are valid, minimal, and witnessed", ok, "200 random automata")


def test_criterion_06_language_preservation():
    rng = random.Random(0xFACE)
    ok = True
    for _ in range(100):
        a = gen_random_wheeler(
            rng.randint(1, 10), rng.randint(1, 3), rng.randint(1, 3), rng.randrange(2**30)
        )
        ok = ok and language_sample_equal(a, minimize(a).quotient, 8)
        if not ok:
            break
    report(6, "quotient accepts the same words up to length 8", ok, "100 random automata")


def test_criterion_07_determinism():
    rng = random.Random(0xD0D0)
    ok = True
    for _ in range(100):
        a = gen_random_wheeler(
            rng.randint(1, 12), 2, rng.randint(1, 4), rng.randrange(2**30), deterministic=True
        )
        result = minimize(a)
        ok = ok and is_deterministic(result.quotient)
    pair_checks = 0
    for seed in range(30):
        a, b = gen_equal_language_dfa_pair(seed)
        q1 = minimize(a).quotient
        q2 = minimize(b).quotient
        ok = ok and order_respecting_iso(q1, q2)
        rel = dfa_language_bisimulation(a, b)
        ok = ok and is_wheeler_bisimulation(a, b, rel) is None
        pair_checks += 1
    report(
        7,
        "DFA quotients stay deterministic; equal-language DFAs share one minimum",
        ok,
        f"100 DFAs, {pair_checks} equal-language pairs",
    )


def test_criterion_08_distinctness_gadget():
    abb = minimize(gen_distinctness("abb")).quotient.n == 4
    abc = minimize(gen_distinctness("abc")).quotient.n == 5
    gadget = gen_distinctness("cbdab")
    oracle_bits = oracle_max_wheeler_autobisimulation(gadget)
    fast_bits = boundary_bits(gadget)
    # Recorded verdict: convex classes cannot reach across the d and a
    # states sitting between the two b-readers, so nothing merges for
    # cbdab even though the two b-readers behave alike (see README).
    recorded = oracle_bits.bits == (True,) * 6
    report(
        8,
        "adjacent duplicates merge; cbdab verdict recorded and matched",
        abb and abc and recorded and fast_bits == oracle_bits,
    )


def test_criterion_09_linearity_evidence():
    rows = []
    for k, size in enumerate((10_000, 100_000, 1_000_000)):
        # the generator lands near 1.4 edges per state at epl=2
        a = gen_random_wheeler(max(2, int(size * 0.7)), 2, 8, 9 + k)
        t0 = time.perf_counter()
        minimize(a)
        seconds = time.perf_counter() - t0
        trace: list = []
        boundary_bits(a, trace)
        enqueues = sum(1 for event, _ in trace if event != TRACE_DEQUEUE)
        rows.append((a.n, len(a.edges), seconds, enqueues))
    exponent = statistics.linear_regression(
        [math.log(edges) for _, edges, _, _ in rows],
        [math.log(max(seconds, 1e-9)) for _, _, seconds, _ in rows],
    ).slope
    ok = all(enqueues <= n - 1 for n, _, _, enqueues in rows)
    detail = "; ".join(
        f"|E|={edges} t={seconds:.2f}s enq={enqueues}<=n-1={n - 1}"
        for n, edges, seconds, enqueues in rows
    )
    detail += f"; growth exponent {exponent:.3f} (reported, not asserted)"
    report(9, "enqueue budget holds at every size", ok, detail)


def test_criterion_10_relation_algebra_laws():
    rng = random.Random(0xA15E)

    def rand_rel(nl, nr):
        count = rng.randint(0, min(10, nl * nr))
        pairs = {(rng.randint(1, nl), rng.randint(1, nr)) for _ in range(count)}
        return Relation(nl, nr, frozenset(pairs))

    cases = 0
    ok = True
    for _ in range(2500):
        n1, n2, n3, n4 = (rng.randint(1, 6) for _ in range(4))
        r1 = rand_rel(n1, n2)
        r2 = rand_rel(n2, n3)
        r3 = rand_rel(n3, n4)
        s1 = rand_rel(n1, n2)

        ok = ok and inverse(inverse(r1)) == r1
        ok = ok and compose(compose(r3, r2), r1) == compose(r3, compose(r2, r1))
        ok = ok and inverse(compose(r2, r1)) == compose(inverse(r1), inverse(r2))
        u = frozenset(rng.sample(range(1, n1 + 1), rng.randint(0, n1)))
        v = frozenset(rng.sample(range(1, n2 + 1), rng.randint(0, n2)))
        both = union(r1, s1)
        ok = ok and image(both, u) == image(r1, u) | image(s1, u)
        ok = ok and preimage(both, v) == preimage(r1, v) | preimage(s1, v)

        # overlapping intervals union to an interval
        m = rng.randint(1, 12)
        z = rng.randint(1, m)
        c1 = set(range(rng.randint(1, z), rng.randint(z, m) + 1))
        c2 = set(range(rng.randint(1, z), rng.randint(z, m) + 1))
        ok = ok and is_convex(c1) and is_convex(c2) and bool(c1 & c2)
        ok = ok and is_convex(c1 | c2)

        cases += 6
        if not ok:
            break
    report(10, "relation-algebra and convexity laws", ok and cases >= 10_000, f"{cases} checks")
