import marshal
import random
import time
import tracemalloc
from collections import Counter
from itertools import chain

import pytest

from wnfa import (
    OrderedAlphabet,
    ValidationReport,
    ViolationKind,
    WheelerNfa,
    accepts,
    boundary_bits,
    gen_random_wheeler,
    is_bisimulation,
    is_deterministic,
    minimize,
    parse_wnfa,
    quotient,
    serialize_wnfa,
    to_dot,
    validate,
    wheeler_bisimilar,
)
from wnfa import automaton, cli

from conftest import (
    brute_accepts,
    build,
    reference_validation,
    unorderable_three_state,
    words_up_to,
)


class TestOrderedAlphabet:
    def test_ranks_follow_declaration_order(self):
        al = OrderedAlphabet(("b", "a", "#1"))
        assert al.rank_of("b") == 0
        assert al.rank_of("#1") == 2
        assert len(al) == 3
        assert "a" in al and "z" not in al

    def test_rejects_duplicates_and_bad_tokens(self):
        with pytest.raises(ValueError):
            OrderedAlphabet(("a", "a"))
        with pytest.raises(ValueError):
            OrderedAlphabet(("",))
        with pytest.raises(ValueError):
            OrderedAlphabet(("a b",))

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            OrderedAlphabet(("a",)).rank_of("b")


class TestWheelerNfaConstruction:
    def test_edges_are_canonically_sorted(self):
        a = build("ab", 2, [(1, 2, "b"), (1, 2, "a"), (2, 2, "a")], {2})
        assert a.edges == ((1, 2, 0), (1, 2, 1), (2, 2, 0))

    def test_edges_are_three_columns(self):
        a = build("ab", 3, [(2, 3, "a"), (1, 2, "b"), (1, 3, "a")], {3})
        assert (a.sources, a.targets, a.labels) == ([1, 1, 2], [3, 2, 3], [0, 1, 0])
        assert "edges" not in vars(a)
        assert a.edges == ((1, 3, 0), (1, 2, 1), (2, 3, 0))
        assert a.edges is a.edges  # built once, on first read
        with pytest.raises(AttributeError):
            a.edges = ()

    def test_accepting_is_a_sorted_tuple_from_every_path(self):
        def check(a, expected):
            assert type(a.accepting) is tuple and a.accepting == expected
            assert "finals" not in vars(a)  # the view is built on first read
            assert a.finals == frozenset(a.accepting)

        edges = ((1, 2, 0), (2, 3, 0), (3, 3, 0))
        checked = WheelerNfa(3, OrderedAlphabet("a"), edges, [3, 1, 3, 2])
        check(checked, (1, 2, 3))
        assert checked.finals is checked.finals  # built once, on first read
        with pytest.raises(AttributeError):
            checked.finals = frozenset()
        doc = "alphabet a\nstates 3\nfinal 3 1 3\nedge 1 2 a\nedge 2 3 a\nedge 3 3 a\n"
        commented = doc.replace("edge 2", "# note\nedge 2")
        assert automaton._parse_columns(commented) is None
        for parsed in (automaton._parse_columns(doc), automaton._parse_lines(commented)):
            check(parsed, (1, 3))
        check(parse_wnfa(commented), (1, 3))

        big = gen_random_wheeler(400, 2, 3, 11)
        check(big, tuple(sorted(set(big.accepting))))
        chain_ = WheelerNfa(3, OrderedAlphabet("a"), edges, range(1, 4))
        for a in (big, chain_):
            result = minimize(a)
            assert result.quotient.n < a.n
            expected = tuple(sorted({result.class_map[f - 1] for f in a.accepting}))
            check(result.quotient, expected)
            check(quotient(a, boundary_bits(a)).quotient, expected)
            status, value = cli._prepare("A", parse_wnfa(serialize_wnfa(a)))
            sent = cli._minimized(marshal.loads(marshal.dumps(value)))
            assert status == cli._MINIMIZED and sent == result
            check(sent.quotient, expected)
        assert minimize(chain_).quotient.accepting == (1,)

    def test_a_canonical_parse_shares_one_int_per_state(self):
        doc = serialize_wnfa(gen_random_wheeler(3000, 2, 3, 4))
        a = automaton._parse_columns(doc)
        states = list(chain(a.sources, a.targets, a.accepting))
        assert len(set(map(id, states))) == len(set(states)) > 2000

    def test_a_huge_state_count_costs_nothing_per_state_to_parse(self):
        doc = "alphabet a\nstates 1000000000000\nfinal 1\nedge 1 1 a\n"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            a = parse_wnfa(doc)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (a.n, a.accepting, a.sources) == (10**12, (1,), [1])
        assert elapsed < 1 and peak < 64 * 2**20, (elapsed, peak)

    def test_rejects_duplicate_edges(self):
        al = OrderedAlphabet(("a",))
        with pytest.raises(ValueError, match="duplicate edge"):
            WheelerNfa(2, al, ((1, 2, 0), (1, 2, 0)), frozenset({2}))

    def test_rejects_out_of_range(self):
        al = OrderedAlphabet(("a",))
        with pytest.raises(ValueError):
            WheelerNfa(2, al, ((1, 3, 0),), frozenset({2}))
        with pytest.raises(ValueError):
            WheelerNfa(2, al, ((1, 2, 1),), frozenset({2}))
        with pytest.raises(ValueError):
            WheelerNfa(2, al, (), frozenset({5}))
        with pytest.raises(ValueError):
            WheelerNfa(0, al, (), frozenset())

    def test_determinism_probe(self, sample_nfa, two_level_tree):
        from wnfa import gen_distinctness

        assert not is_deterministic(sample_nfa)  # two a-edges leave state 1
        assert not is_deterministic(two_level_tree)
        assert is_deterministic(gen_distinctness("abb"))


class TestValidate:
    def test_sample_nfa_is_valid(self, sample_nfa):
        assert validate(sample_nfa).ok

    def test_unorderable_three_state_fails_under_both_orders(self):
        for candidate in unorderable_three_state():
            report = validate(candidate)
            kinds = {v.kind for v in report.violations}
            assert ViolationKind.AXIOM2 in kinds

    def test_axiom2_witness_edges(self):
        # targets 2 < 3 while labels b > a
        a = build("ab", 3, [(1, 2, "b"), (1, 3, "a")], {2, 3})
        report = validate(a)
        ax2 = [v for v in report.violations if v.kind is ViolationKind.AXIOM2]
        assert ax2
        e1, e2 = ax2[0].witness
        assert e1[1] < e2[1] and e1[2] > e2[2]

    def test_axiom3_witness_edges(self):
        # equal labels, targets 2 < 3, sources 3 > 1: a crossing
        a = build("a", 3, [(3, 2, "a"), (1, 3, "a"), (2, 3, "a")], {2, 3})
        report = validate(a)
        ax3 = [v for v in report.violations if v.kind is ViolationKind.AXIOM3]
        assert ax3
        e1, e2 = ax3[0].witness
        assert e1[2] == e2[2] and e1[1] < e2[1] and e1[0] > e2[0]

    def test_isolated_state_not_reachable(self):
        a = build("a", 3, [(1, 2, "a")], {2, 3})
        kinds = [(v.kind, v.witness) for v in validate(a).violations]
        assert (ViolationKind.NOT_REACHABLE, (3,)) in kinds

    def test_dead_state_not_co_reachable(self):
        a = build("a", 3, [(1, 2, "a"), (1, 3, "a")], {2})
        kinds = [(v.kind, v.witness) for v in validate(a).violations]
        assert (ViolationKind.NOT_CO_REACHABLE, (3,)) in kinds

    def test_axiom3_holds_pairwise_on_valid_inputs(self, sample_nfa):
        # direct restatement of the non-crossing rule over all edge pairs
        edges = sample_nfa.edges
        for u, v, lab in edges:
            for u2, v2, lab2 in edges:
                if lab == lab2 and v < v2:
                    assert u <= u2

    def test_axiom2_is_the_non_strict_form(self):
        # a < a' implies v <= v': one state may be entered by two labels,
        # which the strict form (v < v') would reject
        a = parse_wnfa("alphabet a b\nstates 2\nfinal 2\nedge 1 2 a\nedge 1 2 b\n")
        assert validate(a).describe(a) == "ok"

    def test_report_describe_mentions_each_violation(self):
        a = build("ab", 3, [(1, 2, "b"), (1, 3, "a")], {3})
        report = validate(a)
        text = report.describe(a)
        assert "Axiom2" in text and "NotCoReachable" in text

    @pytest.mark.parametrize(
        "symbols, edges, finals, text",
        [
            (
                "a",
                [(1, 2, "a")],
                {2, 3},
                "NotReachable: state 3 has no path from the initial state",
            ),
            (
                "a",
                [(1, 2, "a"), (1, 3, "a")],
                {2},
                "NotCoReachable: state 3 has no path to a final state",
            ),
            (
                "ab",
                [(1, 2, "b"), (1, 3, "a")],
                {2, 3},
                "Axiom2: edges (1 -> 2 on b) and (1 -> 3 on a) order targets 2 < 3"
                " but labels b > a",
            ),
            (
                "a",
                [(3, 2, "a"), (1, 3, "a"), (2, 3, "a")],
                {2, 3},
                "Axiom3: equal-label edges (3 -> 2 on a) and (1 -> 3 on a) cross:"
                " targets 2 < 3 but sources 3 > 1",
            ),
        ],
    )
    def test_describe_text_of_each_kind(self, symbols, edges, finals, text):
        a = build(symbols, 3, edges, finals)
        report = validate(a)
        assert [v.kind.value for v in report.violations] == [text.split(":")[0]]
        assert report.describe(a) == text

    def test_linear_axiom_check_matches_all_pairs(self):
        # the one-scan verdict against the axioms stated over all edge pairs,
        # and the reported violations against the sort-based scan run always
        from wnfa.automaton import _axiom_violations, _axioms_hold

        rng = random.Random(0xA23)
        clean = violating = 0
        for _ in range(20000):
            n, sigma = rng.randint(1, 7), rng.randint(1, 3)
            universe = [
                (u, v, k) for u in range(1, n + 1) for v in range(1, n + 1) for k in range(sigma)
            ]
            edges = rng.sample(universe, rng.randint(0, min(len(universe), 6)))
            a = WheelerNfa(n, OrderedAlphabet(("a", "b", "c")[:sigma]), tuple(edges), frozenset({n}))
            holds = all(
                (k >= k2 or v <= v2) and (k != k2 or u >= u2 or v <= v2)
                for u, v, k in a.edges
                for u2, v2, k2 in a.edges
            )
            assert _axioms_hold(a.targets, a.labels, sigma) == holds, a
            axioms = [
                x for x in validate(a).violations
                if x.kind in (ViolationKind.AXIOM2, ViolationKind.AXIOM3)
            ]
            assert axioms == _axiom_violations(a.edges)
            assert (not axioms) == holds, a
            clean += holds
            violating += not holds
        # 10,911 clean and 9,089 violating
        assert min(clean, violating) >= 8000, (clean, violating)


    def test_matches_the_definitional_reference(self):
        # small automata with any edge set: unreachable and dead states,
        # both axioms broken, and valid ones
        rng = random.Random(0x7A1)
        kinds = Counter()
        for _ in range(2000):
            n, sigma = rng.randint(1, 7), rng.randint(1, 3)
            universe = [
                (u, v, k) for u in range(1, n + 1) for v in range(1, n + 1) for k in range(sigma)
            ]
            edges = rng.sample(universe, rng.randint(0, min(len(universe), 9)))
            finals = rng.sample(range(1, n + 1), rng.randint(0, n))
            a = WheelerNfa(n, OrderedAlphabet(("a", "b", "c")[:sigma]), tuple(edges), frozenset(finals))
            report = validate(a)
            assert report == reference_validation(a), a
            kinds.update(v.kind for v in report.violations)
            kinds["ok"] += report.ok
        # 177 valid, and at least 795 of each kind of violation
        assert len(kinds) == 5 and min(kinds.values()) >= 150, kinds

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_matches_the_definitional_reference_at_scale(self, deterministic):
        a = gen_random_wheeler(140000, 2, 4, 1, deterministic=deterministic)
        assert validate(a) == reference_validation(a) == ValidationReport(())
        # broken: every 500th edge gone, every 700th relabeled, every 900th
        # moved to a target 50 lower, and every other final gone
        edges = {
            (u, max(1, v - 50) if i % 900 == 450 else v, (k + 1) % 4 if i % 700 == 0 else k)
            for i, (u, v, k) in enumerate(a.edges)
            if i % 500
        }
        b = WheelerNfa(a.n, a.alphabet, tuple(edges), frozenset(sorted(a.finals)[::2]))
        report = validate(b)
        assert report == reference_validation(b)
        assert {v.kind for v in report.violations} == set(ViolationKind)


class TestAccepts:
    def test_aa_star(self, aa_star_loop_first):
        assert accepts(aa_star_loop_first, "aaa")
        assert accepts(aa_star_loop_first, "a")
        assert not accepts(aa_star_loop_first, "")

    def test_chain_accepts_empty(self):
        from wnfa import gen_chain

        assert accepts(gen_chain(3), "")

    def test_unknown_symbol_raises(self, aa_star_loop_first):
        with pytest.raises(ValueError):
            accepts(aa_star_loop_first, "ab")

    def test_token_sequences_work(self):
        from wnfa import gen_distinctness

        g = gen_distinctness("ab")
        assert accepts(g, ["#1", "a"])
        assert accepts(g, ["#2", "b"])
        assert not accepts(g, ["#1", "b"])

    def test_agrees_with_path_enumeration(self, sample_nfa):
        for word in words_up_to("abc", 5):
            assert accepts(sample_nfa, word) == brute_accepts(sample_nfa, word), word

    def test_agrees_with_path_enumeration_random(self):
        import random

        from wnfa import gen_random_wheeler

        rng = random.Random(99)
        for _ in range(10):
            a = gen_random_wheeler(rng.randint(1, 6), 2, rng.randint(1, 2), rng.randrange(2**30))
            symbols = a.alphabet.symbols
            for word in words_up_to(symbols, 8):
                assert accepts(a, word) == brute_accepts(a, word), (word, a)


def _maps_from_ranges(a, starts):
    """Per-state map label-rank -> target list, read off the offset ranges."""
    maps = [{} for _ in range(a.n + 1)]
    for u in range(1, a.n + 1):
        for k in range(starts[u], starts[u + 1]):
            maps[u].setdefault(a.labels[k], []).append(a.targets[k])
    return maps


class TestSuccessors:
    # each state's successors are the range starts[u] .. starts[u + 1] - 1
    # of the edge columns, given by the offset table _out_starts
    def test_matches_one_map_per_state(self):
        import random

        from wnfa import gen_random_wheeler
        from wnfa.automaton import _out_starts

        rng = random.Random(17)
        for _ in range(300):
            n, sigma, seed = rng.randint(1, 60), rng.randint(1, 4), rng.randrange(2**30)
            a = gen_random_wheeler(n, 2, sigma, seed, deterministic=rng.random() < 0.5)
            expected = [{} for _ in range(a.n + 1)]
            for u, v, lab in sorted(a.edges):
                expected[u].setdefault(lab, []).append(v)
            starts = _out_starts(a)
            assert len(starts) == a.n + 2 and starts[:2] == [0, 0]
            assert starts[-1] == len(a.edges)
            got = _maps_from_ranges(a, starts)
            for u in range(a.n + 1):
                assert got[u] == expected[u], (u, a)
                assert list(got[u]) == sorted(expected[u])
                assert all(ts == sorted(ts) for ts in got[u].values())

    def test_states_without_out_edges_share_a_read_only_map(self):
        from wnfa.automaton import _out_starts

        a = build("a", 4, [(1, 2, "a"), (2, 3, "a")], {3})
        columns = (list(a.sources), list(a.targets), list(a.labels))
        starts = _out_starts(a)
        # states 3 and 4 share one empty range at the end of the columns
        assert starts == [0, 0, 1, 2, 2, 2]
        got = _maps_from_ranges(a, starts)
        assert got[3] == got[4] == got[0] == {} and got[1] == {0: [2]}
        # the table is the caller's own: writing it leaves the automaton as it was
        starts[4] = 0
        assert _out_starts(a) == [0, 0, 1, 2, 2, 2]
        assert (a.sources, a.targets, a.labels) == columns


class TestEdgeView:
    def test_no_reader_in_the_package_reads_it(self, monkeypatch):
        # the package reads the edge columns and the accepting tuple; with
        # the edge and finals views made to raise, every command path still
        # runs
        def refuse(a):
            raise AssertionError("a view was read")

        nfa = serialize_wnfa(gen_random_wheeler(300, 2, 3, 5))
        dfa = serialize_wnfa(gen_random_wheeler(200, 2, 3, 7, deterministic=True))
        lines = nfa.splitlines(keepends=True)
        texts = [
            nfa,
            "".join(lines[:3] + ["# note\n"] + lines[3:]),  # a comment: the line parser
            dfa,
            dfa.replace("alphabet a b c", "alphabet _ a b c"),  # the same tokens, other ranks
        ]
        invalid = build("ab", 3, [(1, 2, "b"), (1, 3, "a")], {2, 3})
        monkeypatch.setattr(WheelerNfa, "edges", property(refuse))
        monkeypatch.setattr(WheelerNfa, "finals", property(refuse))
        automata = [parse_wnfa(text) for text in texts]
        for text, a in zip(texts, automata):
            assert validate(a).ok
            result = minimize(a)
            assert quotient(a, boundary_bits(a, [])) == result
            assert is_bisimulation(a, result.quotient, result.as_relation()) is None
            assert accepts(a, "") == (1 in a.accepting)
            assert parse_wnfa(serialize_wnfa(result.quotient)) == result.quotient
            to_dot(result.quotient)
            status, value = cli._prepare("A", a)
            assert status == cli._MINIMIZED and cli._minimized(value) == result
        assert minimize(automata[0]).quotient.n < automata[0].n
        assert not is_deterministic(automata[0]) and is_deterministic(automata[2])
        assert wheeler_bisimilar(automata[0], automata[1]).bisimilar
        assert wheeler_bisimilar(automata[2], automata[3]).bisimilar
        assert validate(invalid).describe(invalid) == (
            "Axiom2: edges (1 -> 2 on b) and (1 -> 3 on a) order targets 2 < 3 but labels b > a"
        )
