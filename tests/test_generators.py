import hashlib
import random

import pytest

from wnfa import (
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    is_deterministic,
    serialize_wnfa,
    validate,
)
from wnfa.generators import _below


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

    @pytest.mark.parametrize(
        "deterministic, digest",
        [
            (False, "32a16dab6b64533285df211f6b72da4eb08a4c9f5a19b0a8664635b959455d8e"),
            (True, "8221cc8e50963102724c0ae0ba4526ed6104bdd5642925f5fa82a28a6f6aaa8d"),
        ],
    )
    def test_documents_are_pinned(self, deterministic, digest):
        # the SHA-256 of 61 generated documents, each alphabet size from 1 to
        # past the 26 letters among them: any change to the random draws, the
        # symbol names or the co-reachability repair changes it
        h = hashlib.sha256()
        for seed in range(60):
            n, sigma = 1 + seed * 7 % 97, (1, 2, 3, 5, 26, 30)[seed % 6]
            a = gen_random_wheeler(n, 1 + seed % 3, sigma, seed, deterministic=deterministic)
            h.update(serialize_wnfa(a).encode())
        h.update(serialize_wnfa(gen_random_wheeler(5000, 2, 4, 7, deterministic=deterministic)).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "n, deterministic, seed, digest",
        [
            (20000, False, 1, "db7c8addfcae6cfef5002e077209235aa23e1ded451995abfe25746456f9e6ed"),
            (20000, False, 101, "e98d35d583ff38153ce741c6cba654d290d229ba8c96feb7a44db14a3976f1e6"),
            (5000, True, 1, "188c2aee9743d6dcb29e6a9631aeb883a4c3abe0f003d7be4f40c9c7574a4acd"),
            (5000, True, 101, "b1d77c12f217ace4b89103b9a2f1024b9ec51ae989acfc97a4a891e4c5bba190"),
        ],
    )
    def test_benchmark_inputs_are_pinned(self, n, deterministic, seed, digest):
        # the shapes perfbench's random-nfa and staircase-dfa workloads generate
        a = gen_random_wheeler(n, 2, 8, seed, deterministic=deterministic)
        assert hashlib.sha256(serialize_wnfa(a).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "epl, deterministic, digest",
        [
            (4, False, "8df6dd5796164b963284b8a078a519f7eeafc1d24b8cbe774de87186a0a015fb"),
            (4, True, "f711e72b1ee13849dcc00c8c1d8224154915311d82377f687544bb85f9d88bae"),
            (5, False, "f80f8627228a4a6a93cd5192d4f2ea7271c83a2464753e3c5edb75ac7cc483d0"),
            (5, True, "808ee22ae8889bc0ca184315d531ea7bf8d4b1c27be3d2982003700941008bfe"),
            (6, False, "db83fad649906a08028a1e2efccdffe45fded5e46786b3bf3c645563f15ec91f"),
            (6, True, "f54c30419153854bc26e44b97616e4ae54162b5c803748f364cbc93b3e50d996"),
        ],
    )
    def test_wide_targets_are_pinned(self, epl, deterministic, digest):
        # with 2 to 14 states a target's extra draws can outnumber the
        # sources they are drawn from
        h = hashlib.sha256()
        for seed in range(40):
            n, sigma = 2 + seed % 13, (1, 2, 4, 8)[seed % 4]
            a = gen_random_wheeler(n, epl, sigma, seed, deterministic=deterministic)
            h.update(serialize_wnfa(a).encode())
        h.update(serialize_wnfa(gen_random_wheeler(3000, epl, 8, epl, deterministic=deterministic)).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("name", ["n", "edges_per_label_target", "sigma"])
    def test_rejects_values_below_one(self, name):
        params = dict(n=5, edges_per_label_target=2, sigma=3, seed=1)
        params[name] = 0
        with pytest.raises(ValueError) as err:
            gen_random_wheeler(**params)
        assert str(err.value) == f"{name} must be >= 1, got 0"


class TestBelow:
    @pytest.mark.parametrize("seed", [0, 1, 9, 2024])
    def test_draws_match_randrange(self, seed):
        # the same rejection rule on the same bits: the generator's draws
        # equal those of randint on every supported interpreter
        mine, ref = random.Random(seed), random.Random(seed)
        for w in range(1, 301):
            assert [_below(mine.getrandbits, w) for _ in range(5)] == [ref.randrange(w) for _ in range(5)]
        assert mine.getstate() == ref.getstate()

    @pytest.mark.parametrize("w", [0, -1])
    def test_empty_width_raises(self, w):
        with pytest.raises(ValueError) as err:
            _below(random.Random(1).getrandbits, w)
        assert str(err.value) == f"width must be >= 1, got {w}"
