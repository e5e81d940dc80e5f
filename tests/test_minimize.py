import random
from collections import Counter
from itertools import groupby

import pytest

from wnfa import (
    BoundaryBits,
    OrderedAlphabet,
    WheelerNfa,
    accepts,
    boundary_bits,
    compute_extrema,
    format_trace,
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    is_deterministic,
    is_wheeler_bisimulation,
    minimize,
    quotient,
    validate,
)
from wnfa.reference import max_standard_autobisimulation, oracle_max_wheeler_autobisimulation
from wnfa.minimize import TRACE_DEQUEUE, TRACE_SEED, TRACE_SET_JMAX, TRACE_SET_JMIN

from conftest import (
    build,
    convex_signature_refinement,
    out_label_sets,
    reference_z,
    reference_quotient,
    reference_trace,
    words_up_to,
)


class TestComputeExtrema:
    def test_two_level_tree(self, two_level_tree):
        ex = compute_extrema(two_level_tree)
        b = two_level_tree.alphabet.rank_of("b")
        assert ex.a_min[4] == b and ex.a_max[4] == b
        assert ex.j_min[4] == 2 and ex.j_max[4] == 2
        assert ex.z[2] is True  # state 1 emits only a, state 2 only b
        assert ex.z[5] is False  # states 4 and 5 both emit only c

    def test_distinctness_gadget(self, two_level_tree):
        g = gen_distinctness("abb")
        ex = compute_extrema(g)
        assert ex.a_min[2] == g.alphabet.rank_of("#1")
        assert ex.z[4] is False  # states 3 and 4 both emit only b

    def test_self_loop_single_state(self):
        a = build("a", 1, [(1, 1, "a")], {1})
        ex = compute_extrema(a)
        assert ex.a_min[1] == 0 and ex.j_min[1] == 1
        assert ex.a_max[1] == 0 and ex.j_max[1] == 1
        assert ex.z == [False, False]

    def test_initial_without_in_edges_is_bottom(self, two_level_tree):
        ex = compute_extrema(two_level_tree)
        assert ex.a_min[1] is None and ex.j_min[1] is None
        assert ex.a_max[1] is None and ex.j_max[1] is None

    def test_multi_label_state(self, sample_nfa):
        ex = compute_extrema(sample_nfa)
        al = sample_nfa.alphabet
        # state 3 receives a from 1,2,4 and b from itself
        assert ex.a_min[3] == al.rank_of("a") and ex.j_min[3] == 1
        assert ex.a_max[3] == al.rank_of("b") and ex.j_max[3] == 3
        assert ex.j_min[4] == 1 and ex.j_max[4] == 4

    def test_extrema_edges_exist(self):
        # (j_min, a_min) and (j_max, a_max) must name actual edges
        rng = random.Random(21)
        for _ in range(50):
            a = gen_random_wheeler(rng.randint(1, 12), 2, rng.randint(1, 4), rng.randrange(2**30))
            ex = compute_extrema(a)
            edge_set = set(a.edges)
            for i in range(1, a.n + 1):
                if ex.a_min[i] is None:
                    assert ex.j_min[i] is None and ex.a_max[i] is None
                    continue
                assert (ex.j_min[i], i, ex.a_min[i]) in edge_set
                assert (ex.j_max[i], i, ex.a_max[i]) in edge_set
                assert ex.a_min[i] <= ex.a_max[i]

    def test_matches_definition(self):
        # extrema are the min/max of (label, source) over each state's
        # in-edges; z compares the out-label sets of adjacent states
        rng = random.Random(22)
        for k in range(500):
            a = gen_random_wheeler(
                rng.randint(1, 300), rng.randint(1, 3), rng.randint(1, 5),
                rng.randrange(2**30), deterministic=k % 2 == 1,
            )
            into = [[] for _ in range(a.n + 1)]
            for u, v, lab in a.edges:
                into[v].append((lab, u))
            ex = compute_extrema(a)
            for i in range(1, a.n + 1):
                assert (ex.a_min[i], ex.j_min[i]) == min(into[i], default=(None, None))
                assert (ex.a_max[i], ex.j_max[i]) == max(into[i], default=(None, None))
            assert ex.z == reference_z(a)

    def test_z_matches_the_out_label_sets(self):
        # small automata with any edge set, so states without out-edges sit
        # anywhere: first, in runs in the middle, last, and n = 1
        rng = random.Random(0x2E7)
        seen = Counter()
        for _ in range(3000):
            n, sigma = rng.randint(1, 8), rng.randint(1, 3)
            universe = [
                (u, v, k) for u in range(1, n + 1) for v in range(1, n + 1) for k in range(sigma)
            ]
            edges = rng.sample(universe, rng.randint(0, min(len(universe), 10)))
            a = WheelerNfa(n, OrderedAlphabet("abc"[:sigma]), edges, frozenset())
            z = compute_extrema(a).z
            assert z == reference_z(a), a
            assert all(type(bit) is bool for bit in z)
            silent = [not labels for labels in out_label_sets(a)[1:]]
            seen["n = 1"] += n == 1
            seen["first"] += n > 1 and silent[0]
            seen["run inside"] += any(silent[i] and silent[i + 1] for i in range(1, n - 2))
            seen["last"] += n > 1 and silent[-1]
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize(
        "edges, z",
        [
            # state 1 silent, then states 2 and 3 emit a
            ([(2, 3, "a"), (3, 1, "a")], [False, False, True, False]),
            # a silent run of 2 and 3 between emitting states
            ([(1, 2, "a"), (4, 1, "a")], [False, False, True, False, True]),
            # the last state silent
            ([(1, 2, "a"), (2, 3, "a")], [False, False, False, True]),
            # no edges at all, and n = 1
            ([], [False, False, False]),
            ([], [False, False]),
        ],
    )
    def test_z_around_states_without_out_edges(self, edges, z):
        n = len(z) - 1
        a = build("a", n, edges, {n})
        assert compute_extrema(a).z == z == reference_z(a)


class TestBoundaryBits:
    def test_two_level_tree_all_splits(self, two_level_tree):
        assert boundary_bits(two_level_tree).bits == (True,) * 7

    def test_chain3(self):
        trace = []
        bits = boundary_bits(gen_chain(3), trace)
        assert bits.bits == (True, True)
        assert trace == [
            (TRACE_SEED, 2),
            (TRACE_SEED, 3),
            (TRACE_DEQUEUE, 2),
            (TRACE_DEQUEUE, 3),
        ]

    def test_adjacent_duplicates_merge(self):
        assert boundary_bits(gen_distinctness("abb")).bits == (True, True, False, True)

    def test_sample_nfa_needs_propagation(self, sample_nfa):
        trace = []
        bits = boundary_bits(sample_nfa, trace)
        assert bits.bits == (True, True, True)
        # B[2] is not seeded: states 1 and 2 agree on finality and out-labels.
        seeded = {i for ev, i in trace if ev == TRACE_SEED}
        assert seeded == {3, 4}
        assert (TRACE_SET_JMAX, 2) in trace

    def test_matches_oracle_on_fixtures(self, sample_nfa, two_level_tree):
        for a in (sample_nfa, two_level_tree, gen_chain(4), gen_distinctness("abb")):
            assert boundary_bits(a) == oracle_max_wheeler_autobisimulation(a)

    def test_refinement_reference_matches_oracle(self):
        # the polynomial reference is itself checked where the oracle reaches
        rng = random.Random(33)
        merged = 0
        for k in range(300):
            a = gen_random_wheeler(
                rng.randint(1, 14), 2, rng.randint(1, 3), rng.randrange(2**30),
                deterministic=k % 2 == 0,
            )
            ref = convex_signature_refinement(a)
            assert ref == oracle_max_wheeler_autobisimulation(a)
            assert boundary_bits(a) == ref
            merged += ref.num_classes < a.n
        assert merged >= 50, merged

    def test_matches_refinement_reference_beyond_the_oracle(self):
        rng = random.Random(34)
        merged = 0
        for k in range(30):
            a = gen_random_wheeler(
                rng.randint(50, 2000), 2, rng.randint(1, 4), rng.randrange(2**30),
                deterministic=k % 2 == 0,
            )
            ref = convex_signature_refinement(a)
            assert boundary_bits(a) == ref
            merged += ref.num_classes < a.n
        assert merged >= 15, merged

    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_refinement_reference_at_scale(self, seed, deterministic):
        # 14,000 states: about 2e4 edges as an NFA, 1.4e4 as a DFA; random
        # shapes keep the cause chains, and so the reference's rounds, short
        a = gen_random_wheeler(14000, 2, 4, seed, deterministic=deterministic)
        ref = convex_signature_refinement(a)
        assert boundary_bits(a) == ref
        if not deterministic:
            assert len(a.edges) > 19000 and ref.num_classes < a.n - 100

    def test_dfa_cuts_between_adjacent_nerode_classes(self):
        # on a Wheeler DFA, boundary i is cut exactly when states i-1 and i
        # are not standard-bisimilar, a reference that shares no code with
        # the order-respecting one
        rng = random.Random(35)
        merged = 0
        for _ in range(500):
            a = gen_random_wheeler(
                rng.randint(2, 300), 2, rng.randint(1, 4), rng.randrange(2**30),
                deterministic=True,
            )
            cls = max_standard_autobisimulation(a)
            bits = tuple(cls[i - 2] != cls[i - 1] for i in range(2, a.n + 1))
            assert boundary_bits(a).bits == bits
            merged += not all(bits)
        assert merged >= 50, merged

    def test_enqueue_budget(self):
        rng = random.Random(31)
        for _ in range(100):
            a = gen_random_wheeler(rng.randint(1, 20), 2, rng.randint(1, 4), rng.randrange(2**30))
            trace = []
            boundary_bits(a, trace)
            enqueues = sum(1 for ev, _ in trace if ev != TRACE_DEQUEUE)
            dequeues = sum(1 for ev, _ in trace if ev == TRACE_DEQUEUE)
            assert enqueues <= a.n - 1 or (a.n == 1 and enqueues == 0)
            assert enqueues == dequeues

    def test_necessary_split_soundness(self):
        rng = random.Random(32)
        for _ in range(100):
            a = gen_random_wheeler(rng.randint(2, 12), 2, rng.randint(1, 4), rng.randrange(2**30))
            ex = compute_extrema(a)
            bits = boundary_bits(a)
            for i in range(2, a.n + 1):
                if ((i - 1) in a.finals) != (i in a.finals) or ex.z[i]:
                    assert bits.bit(i)
                if bits.bit(i):
                    jm = ex.j_min[i]
                    if jm is not None and jm >= 2:
                        assert bits.bit(jm)
                    jx = ex.j_max[i - 1]
                    if jx is not None and 1 <= jx <= a.n - 1:
                        assert bits.bit(jx + 1)

    def test_trace_replay_matches_the_recording_loop(self):
        # the replay from the queue must give the events the loop ran, in order
        rng = random.Random(36)
        cases = [gen_chain(k) for k in range(3, 41)]
        cases += [gen_distinctness(w) for w in ("abb", "aab", "abcabc", "ba", "abba")]
        cases += [
            gen_random_wheeler(
                rng.randint(1, 300), 2, rng.randint(1, 4), rng.randrange(2**30),
                deterministic=k % 2 == 0,
            )
            for k in range(400)
        ]
        derived = 0
        for a in cases:
            trace: list = []
            bits = boundary_bits(a, trace)
            assert (bits, trace) == reference_trace(a)
            derived += sum(ev in (TRACE_SET_JMIN, TRACE_SET_JMAX) for ev, _ in trace)
        assert derived >= 1000, derived

    def test_trace_formatting(self):
        trace = []
        boundary_bits(gen_chain(3), trace)
        text = format_trace(trace)
        assert text.splitlines()[0] == "SEED\t2"
        assert all("\t" in line for line in text.splitlines())


class TestQuotient:
    def test_all_singletons_is_identity(self, two_level_tree):
        bits = boundary_bits(two_level_tree)
        result = quotient(two_level_tree, bits)
        assert result.quotient == two_level_tree
        assert result.class_map == tuple(range(1, 9))

    def test_distinctness_merge_stays_deterministic(self):
        g = gen_distinctness("abb")
        result = quotient(g, boundary_bits(g))
        assert result.quotient.n == 4
        assert is_deterministic(result.quotient)
        assert result.class_map == (1, 2, 3, 3, 4)

    def test_single_state_trivial(self):
        a = build("a", 1, [(1, 1, "a")], {1})
        result = quotient(a, BoundaryBits(1, ()))
        assert result.quotient == a

    def test_size_mismatch(self, sample_nfa):
        with pytest.raises(ValueError):
            quotient(sample_nfa, BoundaryBits(3, (True, True)))

    def test_deterministic_input_must_stay_deterministic(self):
        # merging 1 and 2 gives two a-edges out of the merged state
        a = build("a", 3, [(1, 2, "a"), (2, 3, "a")], {3})
        with pytest.raises(ValueError, match="non-deterministic"):
            quotient(a, BoundaryBits(3, (False, True)))

    def test_matches_the_checked_construction_for_any_bits(self):
        # any bits, not only autobisimulations: the result, or the ValueError
        # text, equals the public constructor's, and the edges are canonical
        def outcome(build_quotient, a, bits):
            try:
                return build_quotient(a, bits)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(11)
        seen = {"equal": 0, "non-deterministic": 0, "size": 0}
        for k in range(300):
            a = gen_random_wheeler(
                rng.randint(1, 300), rng.randint(1, 3), rng.randint(1, 4), rng.randrange(2**30),
                deterministic=k % 2 == 1,
            )
            candidates = [boundary_bits(a), BoundaryBits(a.n, (True,) * (a.n - 1))]
            for density in (0.0, 0.2, 0.5, 0.9):
                candidates.append(
                    BoundaryBits(a.n, tuple(rng.random() < density for _ in range(a.n - 1)))
                )
            if k % 50 == 0:
                candidates.append(BoundaryBits(a.n + 1, (True,) * a.n))
            for bits in candidates:
                got = outcome(quotient, a, bits)
                assert got == outcome(reference_quotient, a, bits)
                if bits.n == a.n and all(bits.bits):
                    # all ones: nothing merges, and the input is its own quotient
                    assert got.quotient is a
                if isinstance(got, str):
                    seen["size" if "covers" in got else "non-deterministic"] += 1
                    continue
                seen["equal"] += 1
                keys = [(u, lab, v) for u, v, lab in got.quotient.edges]
                assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
        assert seen["equal"] >= 1000 and seen["non-deterministic"] >= 100, seen
        assert seen["size"] == 6, seen

    def test_invalid_inputs_raise_only_value_error(self):
        # `wnfa minimize` minimizes before it knows the input is valid, so
        # minimize must raise nothing there; quotient raises only ValueError
        rng = random.Random(15)
        seen = {"nfa": 0, "dfa": 0, "ValueError": 0}
        while seen["nfa"] + seen["dfa"] < 2000:
            n, sigma = rng.randint(1, 6), rng.randint(1, 3)
            deterministic = rng.random() < 0.5
            edges = set()
            for u in range(1, n + 1):
                for lab in range(sigma):
                    targets = range(1, n + 1)
                    k = rng.randint(0, 1 if deterministic else n)
                    edges.update((u, v, "abc"[lab]) for v in rng.sample(targets, k))
            finals = {v for v in range(1, n + 1) if rng.random() < 0.3}
            a = build("abc"[:sigma], n, sorted(edges), finals)
            if validate(a).ok:
                continue
            seen["dfa" if deterministic else "nfa"] += 1
            minimize(a)
            try:
                quotient(a, boundary_bits(a))
            except ValueError as exc:
                assert "non-deterministic" in str(exc)
                seen["ValueError"] += 1
        assert min(seen.values()) >= 25, seen

    def test_class_map_is_monotone_and_onto(self):
        rng = random.Random(41)
        for _ in range(50):
            a = gen_random_wheeler(rng.randint(1, 12), 2, rng.randint(1, 3), rng.randrange(2**30))
            result = minimize(a)
            cm = result.class_map
            assert all(x <= y for x, y in zip(cm, cm[1:]))
            assert set(cm) == set(range(1, result.quotient.n + 1))


class TestQuotientByRepresentatives:
    """``minimize`` reads the quotient off each class's first member.

    ``quotient``, which maps every edge and checks its result, is the
    reference: the two must agree on the quotient and on the class map.
    """

    def assert_matches(self, a):
        result = minimize(a)
        assert result == quotient(a, boundary_bits(a))
        return result

    def test_small_automata(self):
        rng = random.Random(19)
        seen = {"nfa": 0, "dfa": 0, "merged": 0, "initial-in-edges": 0}
        while seen["nfa"] + seen["dfa"] < 2000:
            deterministic = rng.random() < 0.5
            if rng.random() < 0.5:
                a = gen_random_wheeler(
                    rng.randint(1, 14), rng.randint(1, 3), rng.randint(1, 3), rng.randrange(2**30),
                    deterministic=deterministic,
                )
            else:
                # any edges at all, kept when they happen to form a valid input
                n, sigma = rng.randint(1, 6), rng.randint(1, 3)
                edges = set()
                for u in range(1, n + 1):
                    for lab in range(sigma):
                        k = rng.randint(0, 1 if deterministic else n)
                        edges.update((u, v, "abc"[lab]) for v in rng.sample(range(1, n + 1), k))
                finals = {v for v in range(1, n + 1) if rng.random() < 0.3}
                a = build("abc"[:sigma], n, sorted(edges), finals)
                if not validate(a).ok:
                    continue
            result = self.assert_matches(a)
            seen["dfa" if is_deterministic(a) else "nfa"] += 1
            seen["merged"] += result.quotient.n < a.n
            seen["initial-in-edges"] += any(v == 1 for _, v, _ in a.edges)
        assert min(seen["nfa"], seen["dfa"]) >= 500 and seen["merged"] >= 300, seen
        assert seen["initial-in-edges"] >= 250, seen

    def test_families(self):
        for k in range(3, 40):
            self.assert_matches(gen_chain(k))
        for text in ("a", "abb", "aaaa", "banana", "abcabcabc", "mississippi"):
            result = self.assert_matches(gen_distinctness(text))
            # only runs of equal adjacent symbols merge
            assert result.quotient.n == len(list(groupby(text))) + 2

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_at_scale(self, deterministic):
        a = gen_random_wheeler(140000, 2, 4, 1, deterministic=deterministic)
        result = self.assert_matches(a)
        assert result.quotient.n < a.n


class TestMinimize:
    def test_sample_nfa_already_minimal(self, sample_nfa):
        result = minimize(sample_nfa)
        assert result.quotient.n == 4
        assert result.quotient == sample_nfa

    def test_aa_star_already_minimal(self, aa_star_loop_first):
        result = minimize(aa_star_loop_first)
        assert result.quotient == aa_star_loop_first

    def test_result_valid_and_idempotent(self):
        rng = random.Random(42)
        for _ in range(60):
            a = gen_random_wheeler(rng.randint(1, 12), 2, rng.randint(1, 3), rng.randrange(2**30))
            result = minimize(a)
            assert validate(result.quotient).ok
            again = minimize(result.quotient)
            assert again.class_map == tuple(range(1, result.quotient.n + 1))
            assert again.quotient == result.quotient

    def test_class_map_is_accepted_by_the_checker(self):
        rng = random.Random(43)
        for _ in range(40):
            a = gen_random_wheeler(rng.randint(1, 12), 2, rng.randint(1, 3), rng.randrange(2**30))
            result = minimize(a)
            assert is_wheeler_bisimulation(a, result.quotient, result.as_relation()) is None

    def test_language_preserved_small(self):
        rng = random.Random(44)
        for _ in range(15):
            a = gen_random_wheeler(rng.randint(1, 8), 2, rng.randint(1, 2), rng.randrange(2**30))
            q = minimize(a).quotient
            for word in words_up_to(a.alphabet.symbols, 6):
                assert accepts(a, word) == accepts(q, word)

    def test_quotient_equivalence_matches_bits(self):
        g = gen_distinctness("abb")
        assert boundary_bits(g).class_map == (1, 2, 3, 3, 4)
