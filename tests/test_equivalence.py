import random
from collections import defaultdict

import pytest

from wnfa import (
    OrderedAlphabet,
    Relation,
    WheelerNfa,
    compose,
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    inverse,
    is_deterministic,
    is_wheeler_bisimulation,
    minimize,
    order_respecting_iso,
    parse_wnfa,
    serialize_wnfa,
    validate,
    wheeler_bisimilar,
)
from wnfa.equivalence import (
    REASON_ISOMORPHIC,
    REASON_NOT_ISOMORPHIC,
    REASON_SIZE_MISMATCH,
)

from conftest import (
    build,
    dfa_language_bisimulation,
    dfa_language_equal,
    gen_equal_language_dfa_pair,
    language_sample_equal,
    unroll_self_loop,
    unrollable_loops,
)


def staircase(base: WheelerNfa, copies: int) -> WheelerNfa:
    """Replace every state of the DFA ``base`` but 1 by ``copies`` adjacent copies.

    Each (target, label) group's source copies, in position order, reach the
    target copies through a monotone non-crossing staircase, so the result
    is a Wheeler DFA and every copy is Wheeler-bisimilar to its original.
    """
    first, count = [0] * (base.n + 1), [0] * (base.n + 1)
    finals = set()
    m = 0
    for v in range(1, base.n + 1):
        first[v], count[v] = m + 1, 1 if v == 1 else copies
        if v in base.finals:
            finals.update(range(m + 1, m + 1 + count[v]))
        m += count[v]
    groups = defaultdict(list)
    for u, v, lab in base.edges:
        groups[(v, lab)].append(u)
    edges = []
    for (t, lab), sources in groups.items():
        src = [p for u in sources for p in range(first[u], first[u] + count[u])]
        for s, p in enumerate(src):
            for k in range(s * count[t] // len(src), ((s + 1) * count[t] - 1) // len(src) + 1):
                edges.append((p, first[t] + k, lab))
    return WheelerNfa(m, base.alphabet, tuple(edges), frozenset(finals))


def with_extra_token(a: WheelerNfa, at: int) -> WheelerNfa:
    """``a`` over its alphabet with an unused token inserted at rank ``at``."""
    symbols = list(a.alphabet.symbols)
    symbols.insert(at, "unused")
    alphabet = OrderedAlphabet(tuple(symbols))
    edges = tuple((u, v, alphabet.rank[a.alphabet.symbols[lab]]) for u, v, lab in a.edges)
    return WheelerNfa(a.n, alphabet, edges, a.finals)


def with_one_more_final(a: WheelerNfa, rng: random.Random) -> WheelerNfa | None:
    """``a`` with one non-final state made final; None when all are final.

    On a DFA whose states are all reachable this adds a word to the
    language, so the copy is never language-equal to ``a``.
    """
    others = [p for p in range(1, a.n + 1) if p not in a.finals]
    if not others:
        return None
    return WheelerNfa(a.n, a.alphabet, a.edges, a.finals | {rng.choice(others)})


def eager_witness(x: WheelerNfa, y: WheelerNfa) -> Relation:
    """The witness as the decision used to build it, through the identity."""
    rx, ry = minimize(x), minimize(y)
    iso = Relation.identity(rx.quotient.n)
    return compose(inverse(ry.as_relation()), compose(iso, rx.as_relation()))


class TestOrderRespectingIso:
    def test_reflexive(self, sample_nfa):
        assert order_respecting_iso(sample_nfa, sample_nfa)

    def test_two_minimal_acceptors_differ(self, aa_star_loop_first, aa_star_loop_last):
        assert not order_respecting_iso(aa_star_loop_first, aa_star_loop_last)

    def test_size_mismatch(self):
        assert not order_respecting_iso(gen_chain(3), gen_chain(4))

    def test_final_set_matters(self):
        a = build("a", 2, [(1, 2, "a")], {2})
        b = build("a", 2, [(1, 2, "a")], {1, 2})
        assert not order_respecting_iso(a, b)

    def test_labels_compared_as_tokens(self):
        a = build(("x", "y"), 2, [(1, 2, "x")], {2})
        b = build(("y", "x"), 2, [(1, 2, "x")], {2})
        assert order_respecting_iso(a, b)  # same token on the only edge
        c = build(("y", "x"), 2, [(1, 2, "y")], {2})
        assert not order_respecting_iso(a, c)
        # a token present on one side only
        d = build(("y",), 2, [(1, 2, "y")], {2})
        assert order_respecting_iso(c, d) and order_respecting_iso(d, c)
        assert not order_respecting_iso(a, d) and not order_respecting_iso(d, a)
        # disjoint alphabets: equal ranks, different tokens
        e = build(("p", "q"), 2, [(1, 2, "p")], {2})
        assert not order_respecting_iso(a, e) and not order_respecting_iso(e, a)

    def test_one_alphabet_agrees_with_translated_labels(self):
        # one more token makes the alphabets differ, so labels go through translation
        rng = random.Random(12)
        seen = {True: 0, False: 0}
        for _ in range(300):
            a = gen_random_wheeler(rng.randint(1, 30), 2, rng.randint(1, 3), rng.randrange(2**30))
            edges = set(a.edges)
            if a.edges and rng.random() < 0.7:
                edges.discard(rng.choice(a.edges))
                edges.add((rng.randint(1, a.n), rng.randint(1, a.n), rng.randrange(len(a.alphabet))))
            same = WheelerNfa(a.n, a.alphabet, tuple(edges), a.finals)
            wider = OrderedAlphabet(a.alphabet.symbols + ("zz",))
            other = WheelerNfa(a.n, wider, tuple(edges), a.finals)
            expected = edges == set(a.edges)
            assert order_respecting_iso(a, same) == expected == order_respecting_iso(a, other)
            assert order_respecting_iso(same, a) == expected == order_respecting_iso(other, a)
            seen[expected] += 1
        assert min(seen.values()) >= 50, seen


class TestWheelerBisimilar:
    def test_chains_of_different_length_are_not_bisimilar(self):
        verdict = wheeler_bisimilar(gen_chain(3), gen_chain(4))
        assert not verdict.bisimilar
        assert verdict.reason == REASON_SIZE_MISMATCH
        assert verdict.witness is None

    def test_two_minimal_acceptors_are_not_bisimilar(
        self, aa_star_loop_first, aa_star_loop_last
    ):
        verdict = wheeler_bisimilar(aa_star_loop_first, aa_star_loop_last)
        assert not verdict.bisimilar
        assert verdict.reason == REASON_NOT_ISOMORPHIC

    def test_automaton_vs_its_quotient(self):
        rng = random.Random(51)
        for _ in range(30):
            a = gen_random_wheeler(rng.randint(1, 12), 2, rng.randint(1, 3), rng.randrange(2**30))
            result = minimize(a)
            verdict = wheeler_bisimilar(a, result.quotient)
            assert verdict.bisimilar and verdict.reason == REASON_ISOMORPHIC
            assert verdict.witness == result.as_relation()
            assert is_wheeler_bisimulation(a, result.quotient, verdict.witness) is None

    def test_reflexive_with_identity_like_witness(self, sample_nfa):
        verdict = wheeler_bisimilar(sample_nfa, sample_nfa)
        assert verdict.bisimilar
        assert is_wheeler_bisimulation(sample_nfa, sample_nfa, verdict.witness) is None

    def test_symmetric_and_transitive_on_related_automata(self):
        rng = random.Random(52)
        for _ in range(10):
            a = gen_random_wheeler(rng.randint(2, 10), 2, rng.randint(1, 3), rng.randrange(2**30))
            fam = [a, minimize(a).quotient, parse_wnfa(serialize_wnfa(a))]
            for x in fam:
                for y in fam:
                    assert wheeler_bisimilar(x, y).bisimilar == wheeler_bisimilar(y, x).bisimilar
                    assert wheeler_bisimilar(x, y).bisimilar

    def test_bisimilar_implies_bounded_language_equality(self):
        rng = random.Random(53)
        for _ in range(10):
            a = gen_random_wheeler(rng.randint(1, 9), 2, rng.randint(1, 3), rng.randrange(2**30))
            q = minimize(a).quotient
            assert wheeler_bisimilar(a, q).bisimilar
            assert language_sample_equal(a, q, 8)

    def test_witness_matches_the_eager_construction(self):
        rng = random.Random(54)
        checked = staircases = negatives = 0
        for _ in range(110):
            a = gen_random_wheeler(
                rng.randint(1, 25), 2, rng.randint(1, 3), rng.randrange(2**30),
                deterministic=rng.random() < 0.5,
            )
            q = minimize(a).quotient
            pairs = [
                (a, q),
                (q, a),
                (a, a),
                (a, parse_wnfa(serialize_wnfa(a))),
                (a, with_extra_token(q, rng.randint(0, len(q.alphabet)))),
            ]
            if is_deterministic(a) and a.n > 1:
                # every state but 1 becomes a multi-state class on both sides
                x, y = staircase(a, 2), staircase(a, 3)
                assert validate(x).ok and validate(y).ok
                pairs.append((x, y))
                staircases += 1
            for x, y in pairs:
                verdict = wheeler_bisimilar(x, y)
                assert verdict.bisimilar
                assert verdict.witness == eager_witness(x, y)
                assert is_wheeler_bisimulation(x, y, verdict.witness) is None
                checked += 1
            other = gen_random_wheeler(a.n, 2, 2, rng.randrange(2**30))
            verdict = wheeler_bisimilar(a, other)
            if verdict.bisimilar:
                assert verdict.witness == eager_witness(a, other)
            else:
                assert verdict.witness is None
                negatives += 1
        assert checked >= 500 and staircases >= 30 and negatives >= 50

    def test_staircase_at_scale_minimizes_to_the_base_quotient(self):
        # heavy merge with an answer known by construction: every state but 1
        # of a seeded Wheeler DFA becomes 4 copies, about 1e5 edges in all
        base = gen_random_wheeler(25_000, 2, 8, 12, deterministic=True)
        a = staircase(base, 4)
        assert len(a.edges) >= 100_000 and validate(a).ok
        known, result = minimize(base), minimize(a)
        assert serialize_wnfa(result.quotient) == serialize_wnfa(known.quotient)
        origin = [1] + [v for v in range(2, base.n + 1) for _ in range(4)]
        assert result.class_map == tuple(known.class_map[v - 1] for v in origin)

    def test_witness_is_built_when_first_read(self):
        a = gen_distinctness("abb")
        verdict = wheeler_bisimilar(a, minimize(a).quotient)
        assert "witness" not in vars(verdict)
        witness = verdict.witness
        assert verdict.witness is witness
        negative = wheeler_bisimilar(gen_chain(3), gen_chain(4))
        assert "witness" not in vars(negative)
        assert negative.witness is None

    def test_language_equality_does_not_imply_bisimilarity(
        self, aa_star_loop_first, aa_star_loop_last
    ):
        # expected-false fixtures: same language, no Wheeler bisimulation
        assert language_sample_equal(aa_star_loop_first, aa_star_loop_last, 8)
        assert not wheeler_bisimilar(aa_star_loop_first, aa_star_loop_last).bisimilar
        assert language_sample_equal(gen_chain(3), gen_chain(4), 8)
        assert not wheeler_bisimilar(gen_chain(3), gen_chain(4)).bisimilar


class TestDfaLanguageBisimulation:
    def test_self_relation_contains_identity_and_passes(self):
        g = gen_distinctness("abb")
        rel = dfa_language_bisimulation(g, g)
        assert rel.pairs >= {(i, i) for i in range(1, g.n + 1)}
        assert is_wheeler_bisimulation(g, g, rel) is None

    def test_unrolled_pair_passes(self):
        two = build("a", 2, [(1, 2, "a"), (2, 2, "a")], {2})
        three = build("a", 3, [(1, 2, "a"), (2, 3, "a"), (3, 3, "a")], {2, 3})
        assert validate(two).ok and validate(three).ok
        rel = dfa_language_bisimulation(three, two)
        assert is_wheeler_bisimulation(three, two, rel) is None

    def test_language_mismatch_is_flagged_by_the_checker(self):
        a = gen_distinctness("ab")
        b = gen_distinctness("ba")
        rel = dfa_language_bisimulation(a, b)
        assert is_wheeler_bisimulation(a, b, rel) is not None
        assert not language_sample_equal(a, b, 8)

    def test_different_alphabets_match_by_token(self):
        # "b" has rank 1 on the left and rank 0 on the right
        a = build("ab", 3, [(1, 2, "a"), (1, 3, "b")], {3})
        b = build("b", 2, [(1, 2, "b")], {2})
        assert dfa_language_bisimulation(a, b).pairs == {(1, 1), (3, 2)}
        assert dfa_language_bisimulation(b, a).pairs == {(1, 1), (2, 3)}

    def test_nondeterministic_input_rejected(self, sample_nfa):
        with pytest.raises(ValueError, match="deterministic"):
            dfa_language_bisimulation(sample_nfa, sample_nfa)

    def test_equal_language_dfas_are_always_bisimilar(self):
        for seed in range(15):
            a, b = gen_equal_language_dfa_pair(seed)
            rel = dfa_language_bisimulation(a, b)
            assert is_wheeler_bisimulation(a, b, rel) is None
            assert wheeler_bisimilar(a, b).bisimilar


class TestDfaLanguageReference:
    """``wheeler_bisimilar`` on Wheeler DFAs against language equality.

    On Wheeler DFAs the two coincide, and the product BFS that decides
    language equality visits at most n1 + n2 - 1 pairs, so it is a linear
    reference at every size.  A pair over that bound would mean an invalid
    order got past ``validate``.
    """

    def check(self, a: WheelerNfa, b: WheelerNfa) -> bool:
        equal, pairs = dfa_language_equal(a, b)
        assert pairs <= a.n + b.n - 1, (a.n, b.n, pairs)
        assert wheeler_bisimilar(a, b).bisimilar == equal
        return equal

    def test_small_pairs(self):
        rng = random.Random(37)
        verdicts = {True: 0, False: 0}
        for _ in range(250):
            # one equal-language pair and one pair from independent seeds
            a, b = gen_equal_language_dfa_pair(
                rng.randrange(2**30), n=rng.randint(2, 58), sigma=rng.randint(1, 4)
            )
            sigma = rng.randint(1, 4)
            c, d = (
                gen_random_wheeler(
                    rng.randint(2, 60), 2, sigma, rng.randrange(2**30), deterministic=True
                )
                for _ in range(2)
            )
            pairs = [(a, b), (c, d)]
            for x in (a, c, d):
                pairs.append((x, minimize(x).quotient))
                y = with_one_more_final(x, rng)
                if y is not None:
                    pairs.append((x, y))
            for x, y in pairs:
                assert validate(x).ok and validate(y).ok
                verdicts[self.check(x, y)] += 1
        assert sum(verdicts.values()) >= 1900 and min(verdicts.values()) >= 800, verdicts

    @pytest.mark.parametrize("n, seeds", [(1_000, 3), (10_000, 2), (100_000, 1)])
    def test_large_pairs(self, n, seeds):
        rng = random.Random(n)
        for _ in range(seeds):
            a = gen_random_wheeler(n, 2, rng.choice((2, 8)), rng.randrange(2**30), True)
            assert validate(a).ok
            assert self.check(a, minimize(a).quotient)
            assert not self.check(a, with_one_more_final(a, rng))


class TestLanguageSampleEqual:
    def test_quotient_agrees(self):
        rng = random.Random(61)
        for _ in range(10):
            a = gen_random_wheeler(rng.randint(1, 10), 2, rng.randint(1, 3), rng.randrange(2**30))
            assert language_sample_equal(a, minimize(a).quotient, 8)

    def test_detects_difference(self):
        assert not language_sample_equal(gen_distinctness("ab"), gen_distinctness("abb"), 4)

    def test_different_alphabets_compare_by_token(self):
        a = build("ab", 2, [(1, 2, "a")], {2})
        b = build("a", 2, [(1, 2, "a")], {2})
        assert language_sample_equal(a, b, 5)
        c = build("ab", 2, [(1, 2, "b")], {2})
        assert not language_sample_equal(a, c, 5)
        # "b" has rank 1 in c and rank 0 in d
        d = build("b", 2, [(1, 2, "b")], {2})
        assert language_sample_equal(c, d, 5)


class TestUnrolling:
    def test_unrolls_the_stock_example(self, aa_star_loop_last):
        assert unrollable_loops(aa_star_loop_last) == [(2, 0)]
        three = unroll_self_loop(aa_star_loop_last, 2, 0)
        expected = build("a", 3, [(1, 2, "a"), (2, 3, "a"), (3, 3, "a")], {2, 3})
        assert three == expected

    def test_loop_on_initial_state(self, aa_star_loop_first):
        # the initial loop feeds a non-loop a-edge out of state 1, so the
        # label leaves the state elsewhere and unrolling is not sound
        assert unrollable_loops(aa_star_loop_first) == []

    def test_rejects_non_candidates(self, aa_star_loop_first):
        with pytest.raises(ValueError):
            unroll_self_loop(aa_star_loop_first, 1, 0)

    def test_unrolling_preserves_everything(self):
        rng = random.Random(62)
        checked = 0
        for _ in range(60):
            a = gen_random_wheeler(
                rng.randint(2, 10), 2, rng.randint(1, 3), rng.randrange(2**30), deterministic=True
            )
            loops = unrollable_loops(a)
            if not loops:
                continue
            v, lab = loops[rng.randrange(len(loops))]
            b = unroll_self_loop(a, v, lab)
            checked += 1
            assert validate(b).ok
            assert is_deterministic(b)
            assert b.n == a.n + 1
            assert language_sample_equal(a, b, 7)
            assert wheeler_bisimilar(a, b).bisimilar
        assert checked >= 5

    def test_pair_generator_is_deterministic_and_equal_language(self):
        nontrivial = 0
        for seed in range(20):
            a1, b1 = gen_equal_language_dfa_pair(seed)
            a2, b2 = gen_equal_language_dfa_pair(seed)
            assert a1 == a2 and b1 == b2
            assert validate(a1).ok and validate(b1).ok
            assert is_deterministic(a1) and is_deterministic(b1)
            assert language_sample_equal(a1, b1, 7)
            if a1.n != b1.n or not order_respecting_iso(a1, b1):
                nontrivial += 1
        assert nontrivial > 0
