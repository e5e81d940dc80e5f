"""The package's collector policy: each name that ran collections on a
2e4-state input runs with the cyclic garbage collector paused, and hands
the caller's setting back on every exit path.

The CLI half of the policy, :func:`wnfa.cli.main`, is tested in
``test_cli.py`` (``TestCollector`` and ``TestCyclicGarbage``).
"""

import gc
import inspect
from types import SimpleNamespace

import pytest

from wnfa import (
    ParseError,
    Relation,
    WheelerNfa,
    boundary_bits,
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    minimize,
    parse_relation,
    parse_wnfa,
    quotient,
    serialize_relation,
    serialize_wnfa,
    validate,
)
from wnfa.automaton import _paused
from wnfa.reference import max_standard_autobisimulation


pytestmark = pytest.mark.usefixtures("collector_back_on")


def inputs(n: int) -> SimpleNamespace:
    """A random n-state NFA, its boundary bits and the documents of it and
    of its class-map relation."""
    a = gen_random_wheeler(n, 2, 8, 5)
    result = minimize(a)
    rel = Relation(a.n, result.quotient.n, enumerate(result.class_map, 1))
    return SimpleNamespace(
        n=n, a=a, bits=boundary_bits(a), triples=list(zip(a.sources, a.targets, a.labels)),
        text=serialize_wnfa(a), rel_text=serialize_relation(rel),
    )


# each wrapped name -> the call to make on inputs x, built before the call
CALLS = {
    "WheelerNfa": lambda x: lambda: WheelerNfa(x.n, x.a.alphabet, x.triples, x.a.accepting),
    # edges is cached on first read, so each call reads it on a fresh automaton
    "WheelerNfa.edges": lambda x: (lambda fresh: lambda: fresh.edges)(parse_wnfa(x.text)),
    "parse_wnfa": lambda x: lambda: parse_wnfa(x.text),
    "validate": lambda x: lambda: validate(x.a),
    "quotient": lambda x: lambda: quotient(x.a, x.bits),
    "parse_relation": lambda x: lambda: parse_relation(x.rel_text),
    "gen_chain": lambda x: lambda: gen_chain(x.n),
    "gen_distinctness": lambda x: lambda: gen_distinctness("ab" * (x.n // 2)),
    "gen_random_wheeler": lambda x: lambda: gen_random_wheeler(x.n, 2, 8, 5),
    "max_standard_autobisimulation": lambda x: lambda: max_standard_autobisimulation(x.a),
}


@pytest.fixture(scope="module")
def small():
    return inputs(200)


@pytest.fixture(scope="module")
def medium():
    return inputs(2_000)


@pytest.fixture(scope="module")
def large():
    return inputs(20_000)


def collections(call) -> list[int]:
    """The generations the collector collected during ``call()``."""
    ran = []

    def record(phase, info):
        if phase == "start":
            ran.append(info["generation"])

    gc.collect()  # every generation empty: no collection is due before the call
    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
    return ran


@pytest.mark.parametrize("name", list(CALLS))
def test_no_collection_at_2e4_states(large, name):
    gc.enable()
    assert collections(CALLS[name](large)) == []
    assert gc.isenabled()


@pytest.mark.parametrize("name", list(CALLS))
def test_the_garbage_left_does_not_grow_with_the_input(small, medium, name):
    # what a paused call leaves for the collector, here collected at once
    found = {}
    for size, x in {"small": small, "large": medium}.items():
        call = CALLS[name](x)
        gc.collect()
        gc.disable()
        value = call()
        found[size] = gc.collect()
        gc.enable()
        del value
    assert found["small"] == found["large"], found


@pytest.mark.parametrize("name", list(CALLS))
def test_off_stays_off(small, name):
    call = CALLS[name](small)
    gc.disable()
    call()
    assert not gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_wnfa("alphabet a\nstates x\n"), ParseError),
        (lambda: parse_relation("pair 1 1\n"), ParseError),
        (lambda: WheelerNfa(2, parse_wnfa("alphabet a\nstates 1\nfinal\n").alphabet,
                            [(1, 3, 0)], ()), ValueError),
        (lambda: gen_random_wheeler(0, 2, 8, 1), ValueError),
    ],
    ids=["parse_wnfa", "parse_relation", "WheelerNfa", "gen_random_wheeler"],
)
def test_restored_when_a_call_raises(call, error, enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(error):
        call()
    assert gc.isenabled() is enabled


def test_a_nested_call_leaves_the_pause_to_the_outer_one():
    # as in a command, which main runs paused: parse the input, then validate it
    @_paused
    def command():
        a = parse_wnfa(serialize_wnfa(gen_chain(5)))
        after_parse = gc.isenabled()
        assert validate(a).ok
        return after_parse, gc.isenabled()

    gc.enable()
    assert command() == (False, False)
    assert gc.isenabled()


@pytest.mark.parametrize(
    "f", [quotient, validate, gen_random_wheeler, WheelerNfa.__init__],
    ids=["quotient", "validate", "gen_random_wheeler", "WheelerNfa"],
)
def test_a_wrapped_name_keeps_its_signature_and_docstring(f):
    original = f.__wrapped__
    assert inspect.signature(f) == inspect.signature(original)
    assert (f.__doc__, f.__qualname__, f.__module__) == (
        original.__doc__, original.__qualname__, original.__module__,
    )
