"""The immutable value records: equality, hash, repr, immutability, construction.

Each record class stores plain fields and compares, hashes and prints them the
way a frozen dataclass would; the repr strings below are that exact text.
"""

import pytest

from wnfa import (
    BoundaryBits,
    CheckFailure,
    EquivalenceVerdict,
    IncidenceExtrema,
    OrderedAlphabet,
    QuotientResult,
    Relation,
    ValidationReport,
    Violation,
    ViolationKind,
    WheelerNfa,
    wheeler_bisimilar,
)


def nfa(final=2):
    return WheelerNfa(2, OrderedAlphabet(("a",)), ((1, 2, 0),), frozenset({final}))


NFA_REPR = (
    "WheelerNfa(n=2, alphabet=OrderedAlphabet(symbols=('a',)), edges=((1, 2, 0),), "
    "finals=frozenset({2}))"
)

# name -> (class, its fields by keyword, the same with one field changed,
# exact repr); the factories build fresh values on every call, so two equal
# records never share their field objects
CASES = {
    "OrderedAlphabet": (
        OrderedAlphabet,
        lambda: dict(symbols=("a", "b")),
        lambda: dict(symbols=("a", "c")),
        "OrderedAlphabet(symbols=('a', 'b'))",
    ),
    "WheelerNfa": (
        WheelerNfa,
        lambda: dict(
            n=2, alphabet=OrderedAlphabet(("a",)), edges=((1, 2, 0),), finals=frozenset({2})
        ),
        lambda: dict(
            n=2, alphabet=OrderedAlphabet(("a",)), edges=((1, 2, 0),), finals=frozenset({1})
        ),
        NFA_REPR,
    ),
    "Violation": (
        Violation,
        lambda: dict(kind=ViolationKind.AXIOM2, witness=((1, 3, 1), (2, 2, 0))),
        lambda: dict(kind=ViolationKind.AXIOM2, witness=((1, 3, 1), (2, 3, 0))),
        "Violation(kind=<ViolationKind.AXIOM2: 'Axiom2'>, witness=((1, 3, 1), (2, 2, 0)))",
    ),
    "ValidationReport": (
        ValidationReport,
        lambda: dict(violations=(Violation(ViolationKind.NOT_REACHABLE, (2,)),)),
        lambda: dict(violations=()),
        "ValidationReport(violations=(Violation(kind=<ViolationKind.NOT_REACHABLE: "
        "'NotReachable'>, witness=(2,)),))",
    ),
    "Relation": (
        Relation,
        lambda: dict(left_size=2, right_size=3, pairs=frozenset({(1, 3)})),
        lambda: dict(left_size=2, right_size=3, pairs=frozenset({(1, 2)})),
        "Relation(left_size=2, right_size=3, pairs=frozenset({(1, 3)}))",
    ),
    "BoundaryBits": (
        BoundaryBits,
        lambda: dict(n=3, bits=(True, False)),
        lambda: dict(n=3, bits=(True, True)),
        "BoundaryBits(n=3, bits=(True, False))",
    ),
    "CheckFailure": (
        CheckFailure,
        lambda: dict(rule="image-convexity", pair=None, edge=None, interval=(1, 2),
                     image=frozenset({1, 3})),
        lambda: dict(rule="image-convexity", pair=None, edge=None, interval=(1, 2),
                     image=frozenset({1, 4})),
        "CheckFailure(rule='image-convexity', pair=None, edge=None, interval=(1, 2), "
        "image=frozenset({1, 3}))",
    ),
    "IncidenceExtrema": (
        IncidenceExtrema,
        lambda: dict(a_min=(None, None, 0), j_min=(None, None, 1), a_max=(None, None, 0),
                     j_max=(None, None, 1), z=(False, False, True)),
        lambda: dict(a_min=(None, None, 0), j_min=(None, None, 1), a_max=(None, None, 0),
                     j_max=(None, None, 1), z=(False, False, False)),
        "IncidenceExtrema(a_min=(None, None, 0), j_min=(None, None, 1), a_max=(None, None, 0), "
        "j_max=(None, None, 1), z=(False, False, True))",
    ),
    "QuotientResult": (
        QuotientResult,
        lambda: dict(quotient=nfa(), class_map=(1, 2)),
        lambda: dict(quotient=nfa(), class_map=(1, 1)),
        f"QuotientResult(quotient={NFA_REPR}, class_map=(1, 2))",
    ),
    "EquivalenceVerdict": (
        EquivalenceVerdict,
        lambda: dict(bisimilar=True, reason="Isomorphic",
                     results=(QuotientResult(nfa(), (1, 2)), QuotientResult(nfa(), (1, 2)))),
        lambda: dict(bisimilar=True, reason="Isomorphic",
                     results=(QuotientResult(nfa(), (1, 2)), QuotientResult(nfa(1), (1, 2)))),
        f"EquivalenceVerdict(bisimilar=True, reason='Isomorphic', results=("
        f"QuotientResult(quotient={NFA_REPR}, class_map=(1, 2)), "
        f"QuotientResult(quotient={NFA_REPR}, class_map=(1, 2))))",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


class TestValueSemantics:
    def test_equal_fields_equal_records(self, case):
        cls, fields, _, _ = case
        x, y = cls(**fields()), cls(**fields())
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_positional_matches_keyword(self, case):
        cls, fields, _, _ = case
        assert cls(*fields().values()) == cls(**fields())

    def test_a_changed_field_is_unequal(self, case):
        cls, fields, changed, _ = case
        assert cls(**fields()) != cls(**changed())

    def test_other_class_same_values_is_unequal(self, case):
        cls, fields, _, _ = case
        twin_cls = type("Twin", (cls,), {})
        x, twin = cls(**fields()), twin_cls(**fields())
        assert x != twin and twin != x
        assert x != tuple(fields().values())
        assert x.__eq__(twin) is NotImplemented

    def test_repr_is_the_dataclass_text(self, case):
        cls, fields, _, text = case
        assert repr(cls(**fields())) == text

    def test_fields_cannot_be_assigned_or_deleted(self, case):
        cls, fields, _, _ = case
        x = cls(**fields())
        name = next(iter(fields()))
        before = getattr(x, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            x.extra = 1
        assert getattr(x, name) is before and not hasattr(x, "extra")


class TestConstruction:
    def test_defaults(self):
        failure = CheckFailure("initial")
        assert repr(failure) == (
            "CheckFailure(rule='initial', pair=None, edge=None, interval=None, image=None)"
        )
        assert CheckFailure("forward", pair=(1, 1), edge=(1, 2, 0)) == CheckFailure(
            "forward", (1, 1), (1, 2, 0), None, None
        )
        verdict = EquivalenceVerdict(False, "SizeMismatch")
        assert repr(verdict) == (
            "EquivalenceVerdict(bisimilar=False, reason='SizeMismatch', results=None)"
        )
        assert verdict.witness is None

    def test_fields_are_normalized(self):
        assert OrderedAlphabet(["a", "b"]).symbols == ("a", "b")
        a = WheelerNfa(2, OrderedAlphabet("ab"), [[2, 2, 1], [1, 2, 0]], {2})
        assert a.edges == ((1, 2, 0), (2, 2, 1)) and a.finals == frozenset({2})
        assert Relation(2, 2, [[1, 2]]).pairs == frozenset({(1, 2)})
        assert repr(BoundaryBits(3, [1, 0])) == "BoundaryBits(n=3, bits=(True, False))"

    @pytest.mark.parametrize(
        "make, field, stored",
        [
            (lambda it: OrderedAlphabet(it(("a", "b"))), "symbols", tuple),
            (
                lambda it: WheelerNfa(
                    2, OrderedAlphabet("a"), it(((2, 2, 0), (1, 2, 0))), it(frozenset({2}))
                ),
                "finals",
                frozenset,
            ),
            (lambda it: Relation(2, 3, it({(1, 3), (2, 1)})), "pairs", frozenset),
            (lambda it: BoundaryBits(3, it((True, False))), "bits", tuple),
        ],
    )
    def test_a_one_shot_generator_gives_the_same_immutable_record(self, make, field, stored):
        # the callers in the package hand these constructors generators and
        # lists, and rely on them for the one immutable copy
        from_generator = make(lambda values: (v for v in values))
        assert from_generator == make(lambda values: values)
        assert type(getattr(from_generator, field)) is stored

    def test_from_canonical_equals_the_checked_constructor(self):
        fast = WheelerNfa._from_canonical(2, OrderedAlphabet(("a",)), [1], [2], [0], (2,))
        assert fast == nfa() and hash(fast) == hash(nfa()) and repr(fast) == NFA_REPR

    def test_cached_properties_stay_out_of_value(self):
        alphabet = OrderedAlphabet(("a", "b"))
        assert alphabet.rank == {"a": 0, "b": 1}
        assert alphabet == OrderedAlphabet(("a", "b"))
        assert repr(alphabet) == "OrderedAlphabet(symbols=('a', 'b'))"

        verdict = wheeler_bisimilar(nfa(), nfa())
        witness = verdict.witness
        assert witness is verdict.witness
        assert witness == Relation(2, 2, frozenset({(1, 1), (2, 2)}))
        assert verdict == wheeler_bisimilar(nfa(), nfa())

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: WheelerNfa(0, OrderedAlphabet("a"), (), frozenset()),
             "state count must be >= 1"),
            (lambda: WheelerNfa(2, OrderedAlphabet("ab"), ((1, 2, 0), (1, 2, 0)), frozenset()),
             "duplicate edge (1, 2, 'a')"),
            (lambda: WheelerNfa(2, OrderedAlphabet("ab"), ((1, 3, 0),), frozenset()),
             "edge (1, 3) out of range 1..2"),
            (lambda: WheelerNfa(2, OrderedAlphabet("ab"), ((1, 2, 2),), frozenset()),
             "edge label rank 2 out of range"),
            (lambda: WheelerNfa(2, OrderedAlphabet("ab"), (), frozenset({3})),
             "final state 3 out of range 1..2"),
            (lambda: OrderedAlphabet(("a", "a")), "duplicate symbol 'a'"),
            (lambda: OrderedAlphabet(("a b",)), "bad symbol token 'a b'"),
            (lambda: OrderedAlphabet(("",)), "bad symbol token ''"),
            (lambda: OrderedAlphabet(("a\tb",)), "bad symbol token 'a\\tb'"),
            (lambda: OrderedAlphabet((1,)), "bad symbol token 1"),
            (lambda: Relation(2, 2, frozenset({(1, 3)})), "pair (1, 3) out of range"),
            (lambda: Relation(2, 2, frozenset({(0, 1)})), "pair (0, 1) out of range"),
            (lambda: BoundaryBits(3, (True,)), "bit array must cover boundaries 2..n"),
            (lambda: BoundaryBits(1, (True,)), "bit array must cover boundaries 2..n"),
            (lambda: BoundaryBits(0, ()), "state count must be >= 1"),
        ],
    )
    def test_checks_keep_type_and_text(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert type(err.value) is ValueError and str(err.value) == message
