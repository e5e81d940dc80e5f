import random

import pytest

from wnfa import (
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    is_deterministic,
    validate,
)


class TestChain:
    def test_three_state_shape(self):
        a = gen_chain(3)
        assert a.n == 3
        assert len(a.edges) == 3
        assert a.finals == frozenset({1, 3})

    def test_four_state_shape(self):
        a = gen_chain(4)
        assert a.n == 4
        assert len(a.edges) == 4
        assert a.finals == frozenset({1, 4})

    def test_too_short(self):
        with pytest.raises(ValueError):
            gen_chain(2)

    @pytest.mark.parametrize("k", range(3, 11))
    def test_valid(self, k):
        assert validate(gen_chain(k)).ok


class TestDistinctness:
    def test_cbdab_shape(self):
        a = gen_distinctness("cbdab")
        assert a.n == 7
        assert len(a.edges) == 10
        assert a.finals == frozenset({7})
        # fresh symbols sort before every base symbol
        assert a.alphabet.symbols[:5] == ("#1", "#2", "#3", "#4", "#5")

    def test_single_character(self):
        a = gen_distinctness("a")
        assert a.n == 3
        assert len(a.edges) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gen_distinctness("")

    @pytest.mark.parametrize("text", ["abb", "cbdab", "zzz", "a"])
    def test_valid_and_deterministic(self, text):
        a = gen_distinctness(text)
        assert validate(a).ok
        assert is_deterministic(a)


class TestRandom:
    def test_single_state(self):
        a = gen_random_wheeler(1, 2, 3, seed=5)
        assert a.n == 1
        assert a.finals == frozenset({1})

    def test_seed_determinism(self):
        a = gen_random_wheeler(9, 2, 3, seed=42)
        b = gen_random_wheeler(9, 2, 3, seed=42)
        assert a == b
        c = gen_random_wheeler(9, 2, 3, seed=43)
        assert a != c  # overwhelmingly likely for distinct seeds

    def test_thousand_samples_all_valid(self):
        rng = random.Random(2024)
        for _ in range(1000):
            a = gen_random_wheeler(
                rng.randint(1, 10), rng.randint(1, 3), rng.randint(1, 5), rng.randrange(2**30)
            )
            report = validate(a)
            assert report.ok, report.describe(a)

    def test_noncrossing_rule_holds_pairwise(self):
        # every equal-label edge pair of a valid automaton is non-crossing
        rng = random.Random(2025)
        for _ in range(50):
            a = gen_random_wheeler(
                rng.randint(1, 10), 2, rng.randint(1, 4), rng.randrange(2**30)
            )
            for u, v, lab in a.edges:
                for u2, v2, lab2 in a.edges:
                    if lab == lab2 and v < v2:
                        assert u <= u2

    def test_deterministic_mode_yields_dfas(self):
        rng = random.Random(7)
        for _ in range(200):
            a = gen_random_wheeler(
                rng.randint(1, 12), 2, rng.randint(1, 4), rng.randrange(2**30), deterministic=True
            )
            assert validate(a).ok
            assert is_deterministic(a)

    def test_covers_initial_state_in_edges(self):
        hits = 0
        for seed in range(60):
            a = gen_random_wheeler(8, 2, 3, seed=seed)
            if any(v == 1 for _, v, _ in a.edges):
                hits += 1
        assert hits > 0

    def test_covers_states_with_two_in_labels(self):
        hits = 0
        for seed in range(60):
            a = gen_random_wheeler(10, 2, 4, seed=seed)
            in_labels = {}
            for _, v, lab in a.edges:
                in_labels.setdefault(v, set()).add(lab)
            if any(len(s) > 1 for s in in_labels.values()):
                hits += 1
        assert hits > 0

    @pytest.mark.parametrize("name", ["n", "edges_per_label_target", "sigma"])
    def test_rejects_values_below_one(self, name):
        params = dict(n=5, edges_per_label_target=2, sigma=3, seed=1)
        params[name] = 0
        with pytest.raises(ValueError) as err:
            gen_random_wheeler(**params)
        assert str(err.value) == f"{name} must be >= 1, got 0"
