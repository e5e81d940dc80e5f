import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnfa import (
    BoundaryBits,
    CheckFailure,
    OrderedAlphabet,
    Relation,
    WheelerNfa,
    compose,
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    inverse,
    is_bisimulation,
    is_wheeler_bisimulation,
    minimize,
    parse_relation,
    serialize_relation,
)
from wnfa.reference import (
    Partition,
    equivalence_from_bits,
    max_standard_autobisimulation,
    oracle_max_wheeler_autobisimulation,
)

from conftest import build, image, is_convex, preimage, union


def rel_strategy(left, right, max_pairs=14):
    return st.frozensets(
        st.tuples(st.integers(1, left), st.integers(1, right)), max_size=max_pairs
    ).map(lambda pairs: Relation(left, right, pairs))


sizes = st.integers(1, 6)


class TestRelationAlgebra:
    @given(st.data())
    def test_inverse_is_an_involution(self, data):
        r = data.draw(rel_strategy(data.draw(sizes), data.draw(sizes)))
        assert inverse(inverse(r)) == r

    def test_inverse_flips_pairs(self):
        r = Relation(2, 3, frozenset({(1, 2)}))
        assert inverse(r) == Relation(3, 2, frozenset({(2, 1)}))

    @given(st.data())
    def test_composition_associates(self, data):
        n1, n2, n3, n4 = (data.draw(sizes) for _ in range(4))
        r1 = data.draw(rel_strategy(n1, n2))
        r2 = data.draw(rel_strategy(n2, n3))
        r3 = data.draw(rel_strategy(n3, n4))
        assert compose(compose(r3, r2), r1) == compose(r3, compose(r2, r1))

    @given(st.data())
    def test_inverse_of_composition(self, data):
        n1, n2, n3 = (data.draw(sizes) for _ in range(3))
        r1 = data.draw(rel_strategy(n1, n2))
        r2 = data.draw(rel_strategy(n2, n3))
        assert inverse(compose(r2, r1)) == compose(inverse(r1), inverse(r2))

    @given(st.data())
    def test_identity_is_neutral(self, data):
        n1, n2 = data.draw(sizes), data.draw(sizes)
        r = data.draw(rel_strategy(n1, n2))
        assert compose(r, Relation.identity(n1)) == r
        assert compose(Relation.identity(n2), r) == r

    @given(st.data())
    def test_union_distributes_over_images(self, data):
        n1, n2 = data.draw(sizes), data.draw(sizes)
        r1 = data.draw(rel_strategy(n1, n2))
        r2 = data.draw(rel_strategy(n1, n2))
        u = data.draw(st.frozensets(st.integers(1, n1)))
        v = data.draw(st.frozensets(st.integers(1, n2)))
        both = union(r1, r2)
        assert image(both, u) == image(r1, u) | image(r2, u)
        assert preimage(both, v) == preimage(r1, v) | preimage(r2, v)

    @given(st.data())
    def test_union_is_idempotent(self, data):
        r = data.draw(rel_strategy(data.draw(sizes), data.draw(sizes)))
        assert union(r, r) == r
        empty = Relation(r.left_size, r.right_size, frozenset())
        assert union(r, empty) == r

    def test_size_mismatches_rejected(self):
        r = Relation(2, 2, frozenset())
        with pytest.raises(ValueError):
            compose(r, Relation(2, 3, frozenset()))
        with pytest.raises(ValueError):
            union(r, Relation(2, 3, frozenset()))
        with pytest.raises(ValueError):
            Relation(2, 2, frozenset({(3, 1)}))

    @given(st.integers(1, 30), st.data())
    def test_overlapping_intervals_union_to_an_interval(self, n, data):
        lo1 = data.draw(st.integers(1, n))
        hi1 = data.draw(st.integers(lo1, n))
        c1 = set(range(lo1, hi1 + 1))
        mid = data.draw(st.sampled_from(sorted(c1)))
        hi2 = data.draw(st.integers(mid, n))
        lo2 = data.draw(st.integers(1, mid))
        c2 = set(range(lo2, hi2 + 1))
        assert c1 & c2
        assert is_convex(c1) and is_convex(c2)
        assert is_convex(c1 | c2)

    def test_is_convex_basics(self):
        assert is_convex(set())
        assert is_convex({4})
        assert is_convex({2, 3, 4})
        assert not is_convex({2, 4})


class TestBitsAndPartitions:
    def test_all_ones_is_singletons(self):
        part = equivalence_from_bits(BoundaryBits(4, (True, True, True)))
        assert part.classes() == [(1,), (2,), (3,), (4,)]

    def test_all_zeros_is_one_class(self):
        part = equivalence_from_bits(BoundaryBits(4, (False, False, False)))
        assert part.classes() == [(1, 2, 3, 4)]

    def test_mixed_bits(self):
        part = equivalence_from_bits(BoundaryBits(4, (True, False, True)))
        assert part.classes() == [(1,), (2, 3), (4,)]

    def test_single_state(self):
        part = equivalence_from_bits(BoundaryBits(1, ()))
        assert part.classes() == [(1,)]

    def test_class_map(self):
        bits = BoundaryBits(5, (True, False, False, True))
        assert bits.class_map == (1, 2, 2, 2, 3)
        assert bits.num_classes == 3
        assert BoundaryBits(1, ()).class_map == (1,)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(2, (1, 0))  # ids must appear in order of first use
        with pytest.raises(ValueError):
            Partition(3, (0, 1))
        with pytest.raises(ValueError):
            Partition(3, (0, -1, 1))

    def test_partition_validation_is_linear(self):
        start = time.perf_counter()
        Partition(50_000, tuple(range(50_000)))
        assert time.perf_counter() - start < 1.0

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            BoundaryBits(3, (True,))


class TestBisimulationChecker:
    def test_branchy_relation_is_a_standard_bisimulation(
        self, branchy, branchy_variant, branchy_relation
    ):
        assert is_bisimulation(branchy, branchy_variant, branchy_relation) is None

    def test_identity_is_a_wheeler_autobisimulation(self, sample_nfa):
        ident = Relation.identity(sample_nfa.n)
        assert is_wheeler_bisimulation(sample_nfa, sample_nfa, ident) is None

    def test_two_state_pair_witness(self, aa_star_loop_first, aa_star_loop_last):
        rel = Relation(2, 2, frozenset({(1, 1), (2, 2)}))
        failure = is_bisimulation(aa_star_loop_first, aa_star_loop_last, rel)
        assert failure is not None
        assert failure.rule == "forward"
        assert failure.pair == (1, 1)
        assert failure.edge == (1, 1, 0)

    def test_no_relation_relates_the_two_state_pair(
        self, aa_star_loop_first, aa_star_loop_last
    ):
        universe = list(itertools.product((1, 2), (1, 2)))
        for bitsmask in range(2 ** len(universe)):
            pairs = frozenset(p for k, p in enumerate(universe) if bitsmask >> k & 1)
            rel = Relation(2, 2, pairs)
            assert is_wheeler_bisimulation(aa_star_loop_first, aa_star_loop_last, rel) is not None

    def test_branchy_relation_fails_the_wheeler_check(
        self, branchy, branchy_variant, branchy_relation
    ):
        failure = is_wheeler_bisimulation(branchy, branchy_variant, branchy_relation)
        assert failure is not None
        assert failure.rule == "image-convexity"
        assert failure.interval == (4, 4)
        assert failure.image == frozenset({2, 4})

    def test_missing_initial_pair(self, sample_nfa):
        rel = Relation(4, 4, frozenset())
        failure = is_bisimulation(sample_nfa, sample_nfa, rel)
        assert failure is not None and failure.rule == "initial"

    def test_finality_failure(self):
        a = build("a", 2, [(1, 2, "a"), (2, 2, "a")], {2})
        b = build("a", 2, [(1, 2, "a"), (2, 2, "a")], {1, 2})
        rel = Relation(2, 2, frozenset({(1, 1), (2, 2)}))
        failure = is_bisimulation(a, b, rel)
        assert failure is not None
        assert failure.rule == "finality"
        assert failure.pair == (1, 1)

    @pytest.mark.parametrize(
        "rule, text",
        [
            (
                "forward",
                "forward: pair (2, 2) cannot match the left edge (src=2, dst=2, label-rank=0)",
            ),
            (
                "backward",
                "backward: pair (2, 2) cannot match the right edge (src=2, dst=2, label-rank=0)",
            ),
            ("initial", "initial: the pair (1, 1) is missing"),
            ("finality", "finality: pair (1, 1) disagrees on acceptance"),
            (
                "image-convexity",
                "image-convexity: interval (1, 1) maps to the non-convex set [1, 3]",
            ),
            (
                "preimage-convexity",
                "preimage-convexity: interval (1, 1) maps to the non-convex set [1, 3]",
            ),
        ],
    )
    def test_describe_text_of_each_rule(self, rule, text):
        # a 2-state path, the same with a loop on 2, the path with 1 final, and
        # an edgeless non-accepting 3-state automaton, whose relations pass every
        # bisimulation rule but the initial pair and so reach the convexity checks
        path = build("a", 2, [(1, 2, "a")], {2})
        loop = build("a", 2, [(1, 2, "a"), (2, 2, "a")], {2})
        both_final = build("a", 2, [(1, 2, "a")], {1, 2})
        edgeless = WheelerNfa(3, OrderedAlphabet(("a",)), (), frozenset())
        diagonal = Relation(2, 2, frozenset({(1, 1), (2, 2)}))
        fan_out = Relation(3, 3, frozenset({(1, 1), (1, 3)}))
        check, x, y, rel = {
            "forward": (is_bisimulation, loop, path, diagonal),
            "backward": (is_bisimulation, path, loop, diagonal),
            "initial": (is_bisimulation, path, path, Relation(2, 2, frozenset())),
            "finality": (is_bisimulation, path, both_final, diagonal),
            "image-convexity": (is_wheeler_bisimulation, edgeless, edgeless, fan_out),
            "preimage-convexity": (is_wheeler_bisimulation, edgeless, edgeless, inverse(fan_out)),
        }[rule]
        failure = check(x, y, rel)
        assert failure.rule == rule
        assert failure.describe() == text

    def test_size_mismatch_rejected(self, sample_nfa, aa_star_loop_first):
        with pytest.raises(ValueError):
            is_bisimulation(sample_nfa, aa_star_loop_first, Relation.identity(3))

    def test_accepted_relations_have_total_images(self):
        # every state must take part on both sides of an accepted relation
        rng = random.Random(5)
        for _ in range(20):
            a = gen_random_wheeler(rng.randint(2, 10), 2, rng.randint(1, 3), rng.randrange(2**30))
            rel = minimize(a).as_relation()
            q = minimize(a).quotient
            assert is_wheeler_bisimulation(a, q, rel) is None
            assert all(image(rel, {u}) for u in range(1, a.n + 1))
            assert all(preimage(rel, {v}) for v in range(1, q.n + 1))

    def test_inverse_of_accepted_relation_is_accepted(self):
        rng = random.Random(6)
        for _ in range(20):
            a = gen_random_wheeler(rng.randint(2, 10), 2, rng.randint(1, 3), rng.randrange(2**30))
            result = minimize(a)
            rel = result.as_relation()
            assert is_wheeler_bisimulation(result.quotient, a, inverse(rel)) is None

    def test_composition_of_accepted_relations_is_accepted(self):
        rng = random.Random(7)
        for _ in range(20):
            a = gen_random_wheeler(rng.randint(2, 10), 2, rng.randint(1, 3), rng.randrange(2**30))
            rel = minimize(a).as_relation()
            roundtrip = compose(inverse(rel), rel)  # a -> quotient -> a
            assert is_wheeler_bisimulation(a, a, roundtrip) is None

    def test_convexity_witness_is_a_minimal_failing_interval(self):
        def failing_intervals(images):
            # the definition: every interval whose accumulated image is not convex
            out = []
            for i in range(1, len(images)):
                acc: set[int] = set()
                for j in range(i, len(images)):
                    acc |= images[j]
                    if not is_convex(acc):
                        out.append((i, j))
            return out

        # edgeless, non-accepting automata meet every bisimulation rule but
        # the initial pair, so the relations reach the convexity checks
        alphabet = OrderedAlphabet(("a",))
        rng = random.Random(0xC0DE)
        outcomes: dict = {}
        for _ in range(20_000):
            n, n2 = rng.randint(1, 7), rng.randint(1, 7)
            a = WheelerNfa(n, alphabet, (), frozenset())
            b = WheelerNfa(n2, alphabet, (), frozenset())
            density = rng.random()
            pairs = {
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n2 + 1)
                if rng.random() < density
            }
            if rng.random() < 0.9:
                pairs.add((1, 1))
            rel = Relation(n, n2, frozenset(pairs))
            for x, y, r in ((a, b, rel), (b, a, inverse(rel))):
                got = is_wheeler_bisimulation(x, y, r)
                rule = got and got.rule
                outcomes[rule] = outcomes.get(rule, 0) + 1
                plain = is_bisimulation(x, y, r)
                if plain is not None:
                    assert got == plain
                    continue
                sides = []
                for side, size, side_pairs in (
                    ("image-convexity", x.n, r.pairs),
                    ("preimage-convexity", y.n, {(j, i) for i, j in r.pairs}),
                ):
                    images = [set() for _ in range(size + 1)]
                    for p, q in side_pairs:
                        images[p].add(q)
                    sides.append((side, images, failing_intervals(images)))
                expected = next(((s, im, bad) for s, im, bad in sides if bad), None)
                if expected is None:
                    assert got is None
                    continue
                side, images, bad = expected
                assert got.rule == side
                hash(got)  # the record hashes its fields, so the image is frozen
                i, j = got.interval
                assert got.image == set().union(*images[i : j + 1])
                assert not is_convex(got.image)
                # minimal: every proper sub-interval has a convex image
                assert all((s, t) == (i, j) or not i <= s <= t <= j for s, t in bad)
                # first: no failing interval ends before it
                assert j == min(t for _, t in bad)
        assert set(outcomes) == {None, "initial", "image-convexity", "preimage-convexity"}
        assert min(outcomes.values()) >= 1000, outcomes

    def test_convexity_check_is_linear(self):
        # identity plus (n, n - 2): only the last position's image fails, so
        # a scan that restarts at every interval start does quadratic work
        n = 20_000
        edgeless = WheelerNfa(n, OrderedAlphabet(("a",)), (), frozenset())
        rel = Relation(n, n, Relation.identity(n).pairs | {(n, n - 2)})
        start = time.perf_counter()
        failure = is_wheeler_bisimulation(edgeless, edgeless, rel)
        elapsed = time.perf_counter() - start
        assert failure == CheckFailure(
            "image-convexity", interval=(n, n), image=frozenset({n - 2, n})
        )
        assert elapsed < 1.0, elapsed

        a = gen_random_wheeler(20_000, 2, 3, 5)
        result = minimize(a)
        rel = result.as_relation()
        assert result.quotient.n < a.n
        assert is_wheeler_bisimulation(a, result.quotient, rel) is None
        assert is_wheeler_bisimulation(result.quotient, a, inverse(rel)) is None

    def test_convexity_memory_is_bounded_by_the_relation(self):
        # one related pair on a large edgeless automaton: the convexity
        # checks may hold images for related positions only, not for all n
        n = 200_000
        edgeless = WheelerNfa(n, OrderedAlphabet(("a",)), (), frozenset())
        rel = Relation(n, n, frozenset({(1, 1)}))
        peaks = []
        for check in (is_bisimulation, is_wheeler_bisimulation):
            tracemalloc.start()
            try:
                assert check(edgeless, edgeless, rel) is None
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2_000_000, peaks


class TestStandardBisimulationBaseline:
    def test_two_level_tree_classes(self, two_level_tree):
        part = max_standard_autobisimulation(two_level_tree)
        assert set(part.classes()) == {(1,), (2, 3), (4, 6), (5, 7), (8,)}

    def test_single_state(self):
        a = build("a", 1, [(1, 1, "a")], {1})
        assert max_standard_autobisimulation(a).classes() == [(1,)]

    def test_branchy_merges_to_three_classes(self, branchy):
        part = max_standard_autobisimulation(branchy)
        assert set(part.classes()) == {(1,), (2, 4), (3,)}

    def test_class_relation_is_a_bisimulation(self):
        rng = random.Random(11)
        for _ in range(25):
            a = gen_random_wheeler(rng.randint(1, 10), 2, rng.randint(1, 3), rng.randrange(2**30))
            part = max_standard_autobisimulation(a)
            assert is_bisimulation(a, a, part.to_relation()) is None

    def test_coarseness_against_exhaustive_merges(self):
        # no pair outside the partition can be added while keeping a bisimulation
        rng = random.Random(12)
        for _ in range(10):
            a = gen_random_wheeler(rng.randint(2, 7), 2, rng.randint(1, 2), rng.randrange(2**30))
            part = max_standard_autobisimulation(a)
            rel = part.to_relation()
            for u in range(1, a.n + 1):
                for v in range(1, a.n + 1):
                    if (u, v) in rel.pairs:
                        continue
                    bigger = Relation(a.n, a.n, rel.pairs | {(u, v), (v, u)})
                    assert is_bisimulation(a, a, bigger) is not None


class TestOracle:
    def test_two_level_tree_all_singletons(self, two_level_tree):
        bits = oracle_max_wheeler_autobisimulation(two_level_tree)
        assert all(bits.bits)

    def test_adjacent_duplicate_merges(self):
        bits = oracle_max_wheeler_autobisimulation(gen_distinctness("abb"))
        assert bits.bits.count(False) == 1
        # the merged pair is the two b-reading states, positions 3 and 4
        assert bits.bit(4) is False
        assert equivalence_from_bits(bits).num_classes == 4

    def test_single_state(self):
        a = build("a", 1, [], {1})
        assert oracle_max_wheeler_autobisimulation(a).bits == ()

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            oracle_max_wheeler_autobisimulation(gen_chain(17), cap=16)

    def test_matches_unpruned_enumeration(self):
        # re-derive the answer with no pruning at all: every bit array, full check
        rng = random.Random(13)
        for _ in range(40):
            a = gen_random_wheeler(rng.randint(1, 8), 2, rng.randint(1, 3), rng.randrange(2**30))
            n = a.n
            passing_zero_sets = []
            for mask in range(2 ** (n - 1)):
                bits = BoundaryBits(n, tuple(not (mask >> k & 1) for k in range(n - 1)))
                rel = equivalence_from_bits(bits).to_relation()
                if is_wheeler_bisimulation(a, a, rel) is None:
                    passing_zero_sets.append({i for i in range(2, n + 1) if not bits.bit(i)})
            expected_zeros = set().union(*passing_zero_sets) if passing_zero_sets else set()
            got = oracle_max_wheeler_autobisimulation(a)
            assert {i for i in range(2, n + 1) if not got.bit(i)} == expected_zeros
            # maximality: every passing equivalence refines the oracle's result
            for zeros in passing_zero_sets:
                assert zeros <= expected_zeros

    def test_union_of_passing_equivalences_passes(self):
        rng = random.Random(14)
        tried = 0
        for _ in range(200):
            a = gen_random_wheeler(rng.randint(2, 8), 2, rng.randint(1, 2), rng.randrange(2**30))
            n = a.n
            passing = []
            for mask in range(2 ** (n - 1)):
                bits = BoundaryBits(n, tuple(not (mask >> k & 1) for k in range(n - 1)))
                rel = equivalence_from_bits(bits).to_relation()
                if is_wheeler_bisimulation(a, a, rel) is None:
                    passing.append(rel)
            for r1, r2 in itertools.combinations(passing, 2):
                tried += 1
                assert is_wheeler_bisimulation(a, a, union(r1, r2)) is None
            if tried > 50:
                break
        assert tried > 0


class TestRelationFormat:
    def test_round_trip(self):
        r = Relation(3, 4, frozenset({(1, 1), (2, 4), (3, 2)}))
        assert parse_relation(serialize_relation(r)) == r

    def test_parse_errors(self):
        from wnfa import ParseError

        with pytest.raises(ParseError, match="missing relation"):
            parse_relation("# nothing here\n")
        with pytest.raises(ParseError, match="before relation"):
            parse_relation("pair 1 1\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_relation("relation 2 2\npair 3 1\n")
        with pytest.raises(ParseError, match="unknown directive"):
            parse_relation("relation 2 2\nedge 1 1 a\n")

    # (document, str(error), line, column) for every ParseError site
    @pytest.mark.parametrize(
        "doc, message, line, column",
        [
            ("", "line 1: missing relation line", 1, None),
            ("# nothing here\n", "line 2: missing relation line", 2, None),
            ("relation 2 2\nrelation 2 2\n", "line 2, column 1: repeated relation line", 2, 1),
            ("relation 2\n", "line 1, column 1: relation line takes: relation <n> <n'>", 1, 1),
            ("relation x 2\n", "line 1, column 10: expected size, got 'x'", 1, 10),
            ("relation 2 y\n", "line 1, column 12: expected size, got 'y'", 1, 12),
            ("relation 0 1\npair 1 1\n", "line 1, column 10: size must be >= 1", 1, 10),
            ("relation -3 1\n", "line 1, column 10: size must be >= 1", 1, 10),
            ("relation 2 0\n", "line 1, column 12: size must be >= 1", 1, 12),
            ("relation 0 y\n", "line 1, column 12: expected size, got 'y'", 1, 12),
            ("pair 1 1\n", "line 1, column 1: pair line before relation line", 1, 1),
            ("relation 2 2\npair 1\n", "line 2, column 1: pair line takes: pair <i> <j>", 2, 1),
            ("relation 2 2\npair x 1\n", "line 2, column 6: expected index, got 'x'", 2, 6),
            ("relation 2 2\npair 1 y\n", "line 2, column 8: expected index, got 'y'", 2, 8),
            ("relation 2 2\npair 3 1\n", "line 2, column 6: index 3 out of range 1..2", 2, 6),
            ("relation 2 3\npair 1 4\n", "line 2, column 8: index 4 out of range 1..3", 2, 8),
            ("relation 2 2\npair 9 x\n", "line 2, column 8: expected index, got 'x'", 2, 8),
            ("relation 2 2\nedge 1 1 a\n", "line 2, column 1: unknown directive 'edge'", 2, 1),
            ("relation 2 2\npair\t1\t3\n", "line 2, column 8: index 3 out of range 1..2", 2, 8),
            ("relation 2 2\npair\u30001 3\n", "line 2, column 8: index 3 out of range 1..2", 2, 8),
            ("relation 2 2\n  pair 1 3\n", "line 2, column 10: index 3 out of range 1..2", 2, 10),
            ("relation 2 2\x0bpair 1 3\n", "line 2, column 8: index 3 out of range 1..2", 2, 8),
            ("relation 2 2\r\n\r\npair 1 3\r\n", "line 3, column 8: index 3 out of range 1..2", 3, 8),
        ],
    )
    def test_parse_error_exact(self, doc, message, line, column):
        from wnfa import ParseError

        with pytest.raises(ParseError) as err:
            parse_relation(doc)
        assert (str(err.value), err.value.line, err.value.column) == (message, line, column)
