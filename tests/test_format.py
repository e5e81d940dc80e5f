import io
import random
import sys

import pytest

from wnfa import (
    OrderedAlphabet,
    ParseError,
    WheelerNfa,
    automaton,
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    parse_wnfa,
    serialize_wnfa,
    to_dot,
)

from wnfa.cli import main

from conftest import build


GOOD = """\
# minimal acceptor of aa*
alphabet a
states 2
final 2
edge 1 1 a
edge 1 2 a
"""


def test_parse_basic():
    a = parse_wnfa(GOOD)
    assert a.n == 2
    assert a.finals == frozenset({2})
    assert a.edges == ((1, 1, 0), (1, 2, 0))


def test_single_state_epsilon_only():
    a = parse_wnfa("alphabet a\nstates 1\nfinal 1\n")
    assert a.n == 1 and not a.edges
    from wnfa import accepts

    assert accepts(a, "") and not accepts(a, "a")


def test_round_trip_identity(sample_nfa, aa_star_loop_first):
    for a in (sample_nfa, aa_star_loop_first, gen_chain(5), gen_distinctness("cbdab")):
        assert parse_wnfa(serialize_wnfa(a)) == a


def test_serialize_is_idempotent_on_documents():
    doc = serialize_wnfa(parse_wnfa(GOOD))
    assert serialize_wnfa(parse_wnfa(doc)) == doc


def test_shuffled_edges_serialize_identically():
    shuffled = "alphabet a b\nstates 3\nfinal 3\nedge 2 3 b\nedge 1 2 a\nedge 1 3 a\n"
    ordered = "alphabet a b\nstates 3\nfinal 3\nedge 1 2 a\nedge 1 3 a\nedge 2 3 b\n"
    assert serialize_wnfa(parse_wnfa(shuffled)) == serialize_wnfa(parse_wnfa(ordered))


def test_chain_matches_expected_document():
    assert serialize_wnfa(gen_chain(3)) == (
        "alphabet a\nstates 3\nfinal 1 3\nedge 1 1 a\nedge 1 2 a\nedge 2 3 a\n"
    )


def test_final_indices_parse_as_int_does():
    a = parse_wnfa("alphabet a b\nstates 3\nfinal 2 2 +3\n")
    assert a.finals == frozenset({2, 3})


def test_empty_final_line():
    # final states may be absent only syntactically; such automata fail
    # validation (no co-reachable states) but must parse
    a = parse_wnfa("alphabet a\nstates 1\nfinal\n")
    assert a.finals == frozenset()
    assert serialize_wnfa(a) == "alphabet a\nstates 1\nfinal\n"


def test_finals_table_is_built_from_the_ints():
    # copied from a set, 150,000 finals would get a hash table twice as large
    finals = list(range(1, 300_001, 2))
    doc = f"alphabet a\nstates 300000\nfinal {' '.join(map(str, finals))}\n"
    a = parse_wnfa(doc)
    assert a.finals == frozenset(finals)
    assert sys.getsizeof(a.finals) == sys.getsizeof(frozenset(finals))
    assert sys.getsizeof(a.finals) < sys.getsizeof(frozenset(set(finals)))


def test_hash_symbols_survive_round_trip():
    g = gen_distinctness("ab")
    doc = serialize_wnfa(g)
    assert "#1" in doc and parse_wnfa(doc) == g


def test_comment_lines_and_blanks_ignored():
    doc = "# header\n\nalphabet a\n  # indented comment\nstates 1\nfinal 1\n"
    assert parse_wnfa(doc).n == 1


HEAD = "alphabet a\nstates 2\nfinal 2\n"

# (document, str(error), line, column): one row per ParseError site, plus
# rows pinning how whitespace other than spaces moves columns and lines.
PARSE_ERRORS = [
    ("", "line 1: missing alphabet line", 1, None),
    ("# only a comment\n\n", "line 3: missing alphabet line", 3, None),
    ("alphabet a\n", "line 2: missing states line", 2, None),
    ("alphabet a\nstates 1\n", "line 3: missing final line", 3, None),
    ("alphabet a\r\nstates 1\r\n", "line 3: missing final line", 3, None),
    ("alphabet a\nalphabet b\n", "line 2, column 1: repeated alphabet line", 2, 1),
    ("alphabet a b a\n", "line 1, column 1: duplicate symbol 'a'", 1, 1),
    ("states 1\n", "line 1, column 1: states line before alphabet line", 1, 1),
    ("alphabet a\nstates 1\nstates 1\n", "line 3, column 1: repeated states line", 3, 1),
    ("alphabet a\nstates\n", "line 2, column 1: states line takes exactly one count", 2, 1),
    ("alphabet a\nstates 1 2\n", "line 2, column 1: states line takes exactly one count", 2, 1),
    ("alphabet a\nstates x\n", "line 2, column 8: expected state count, got 'x'", 2, 8),
    ("alphabet a\nstates 0\n", "line 2, column 8: state count must be >= 1", 2, 8),
    ("alphabet a\nstates  -3\n", "line 2, column 9: state count must be >= 1", 2, 9),
    ("alphabet a\nfinal 1\n", "line 2, column 1: final line before states line", 2, 1),
    (HEAD + "final 1\n", "line 4, column 1: repeated final line", 4, 1),
    ("alphabet a\nstates 2\nfinal 1 y\n", "line 3, column 9: expected state index, got 'y'", 3, 9),
    ("alphabet a\nstates 2\nfinal 1 3\n", "line 3, column 9: state index 3 out of range 1..2", 3, 9),
    ("alphabet a\nstates 2\nfinal 99 x\n", "line 3, column 7: state index 99 out of range 1..2", 3, 7),
    # the final line is read in one pass; only a bad index reruns it token by token
    ("alphabet a b\nstates 3\nfinal 1 x 99\n", "line 3, column 9: expected state index, got 'x'", 3, 9),
    ("alphabet a b\nstates 3\nfinal 0\n", "line 3, column 7: state index 0 out of range 1..3", 3, 7),
    ("alphabet a b\nstates 3\nfinal 1_0\n", "line 3, column 7: state index 10 out of range 1..3", 3, 7),
    ("alphabet a\nstates 2\nedge 1 2 a\n", "line 3, column 1: edge line before final line", 3, 1),
    (HEAD + "edge 1 2\n", "line 4, column 1: edge line takes: edge <src> <dst> <tok>", 4, 1),
    (HEAD + "edge 1 2 a # note\n", "line 4, column 1: edge line takes: edge <src> <dst> <tok>", 4, 1),
    (HEAD + "edge x 2 a\n", "line 4, column 6: expected state index, got 'x'", 4, 6),
    (HEAD + "edge 1 y a\n", "line 4, column 8: expected state index, got 'y'", 4, 8),
    (HEAD + "edge 3 1 a\n", "line 4, column 6: state index 3 out of range 1..2", 4, 6),
    (HEAD + "edge 1 3 a\n", "line 4, column 8: state index 3 out of range 1..2", 4, 8),
    (HEAD + "edge 0 1 a\n", "line 4, column 6: state index 0 out of range 1..2", 4, 6),
    (HEAD + "edge 99 x a\n", "line 4, column 9: expected state index, got 'x'", 4, 9),
    (HEAD + "edge 1 2 zz\n", "line 4, column 10: unknown symbol 'zz'", 4, 10),
    (HEAD + "edge 1 2 a\nedge 1 2 a\n", "line 5, column 1: duplicate edge 1 2 a", 5, 1),
    (HEAD + "edge 1 2 a\n edge +1 02 a\n", "line 5, column 2: duplicate edge 1 2 a", 5, 2),
    # two errors in one document: the first in document order wins
    (HEAD + "edge 1 2 a\nedge 1 2 a\nedge 1 x a\n", "line 5, column 1: duplicate edge 1 2 a", 5, 1),
    (HEAD + "edge 1 x a\nedge 1 2 a\nedge 1 2 a\n", "line 4, column 8: expected state index, got 'x'", 4, 8),
    (HEAD + "edge 2 1 a\nedge 1 2 a\nedge 2 1 a\nedge 1 2 zz\n",
     "line 6, column 1: duplicate edge 2 1 a", 6, 1),
    ("alphabet a\nstates 2\ninitial 1\nfinal 2\n",
     "line 3, column 1: unsupported 'initial' line: the initial state is always position 1", 3, 1),
    ("alphabet a\nstates 1\nfinal 1\nnonsense x\n", "line 4, column 1: unknown directive 'nonsense'", 4, 1),
    # columns count characters: a tab, U+3000 and leading spaces are one each
    (HEAD + "edge\t1\t2\tzz\n", "line 4, column 10: unknown symbol 'zz'", 4, 10),
    (HEAD + "edge 1\u3000\u30002 zz\n", "line 4, column 11: unknown symbol 'zz'", 4, 11),
    (HEAD + "   edge 1 2 zz\n", "line 4, column 13: unknown symbol 'zz'", 4, 13),
    ("  # indented comment\n  nonsense\n", "line 2, column 3: unknown directive 'nonsense'", 2, 3),
    # \x0b ends a line, like CRLF and LF
    ("alphabet a\nstates 2\x0bfinal 2\nedge 1 3 a\n", "line 4, column 8: state index 3 out of range 1..2", 4, 8),
    ("alphabet a\r\nstates 2\r\nfinal 2\r\nedge 1 2 zz\r\n", "line 4, column 10: unknown symbol 'zz'", 4, 10),
]


class TestParseErrors:
    def check(self, doc, fragment, line=None):
        with pytest.raises(ParseError) as err:
            parse_wnfa(doc)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_missing_header(self):
        self.check("", "missing alphabet")
        self.check("alphabet a\n", "missing states")
        self.check("alphabet a\nstates 1\n", "missing final")

    def test_state_index_out_of_range(self):
        self.check(
            "alphabet a\nstates 2\nfinal 2\nedge 1 3 a\n", "out of range", line=4
        )

    def test_unknown_symbol(self):
        self.check("alphabet a\nstates 2\nfinal 2\nedge 1 2 b\n", "unknown symbol")

    def test_duplicate_edge(self):
        self.check(
            "alphabet a\nstates 2\nfinal 2\nedge 1 2 a\nedge 1 2 a\n",
            "duplicate edge",
            line=5,
        )

    def test_initial_line_rejected(self):
        self.check("alphabet a\nstates 2\ninitial 1\nfinal 2\n", "initial")

    def test_unknown_directive(self):
        self.check("alphabet a\nstates 1\nfinal 1\nnonsense x\n", "unknown directive")

    def test_bad_count(self):
        self.check("alphabet a\nstates x\n", "expected state count")
        self.check("alphabet a\nstates 0\n", ">= 1")

    def test_misordered_header(self):
        self.check("states 1\n", "before alphabet")
        self.check("alphabet a\nfinal 1\n", "before states")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_wnfa("alphabet a\nstates 2\nfinal 2\nedge 1 2 zz\n")
        assert err.value.line == 4
        assert err.value.column == 10

    @pytest.mark.parametrize("doc, message, line, column", PARSE_ERRORS)
    def test_exact(self, doc, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_wnfa(doc)
        assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


# 100 edges in canonical order on lines 4..103; each case appends lines
# from 104 on, so the line parser reads 100 edges in order before the case's own line.
IN_ORDER = "alphabet a b\nstates 101\nfinal 101\n" + "".join(
    f"edge {i} {i + 1} a\n" for i in range(1, 101)
)

# (appended lines, str(error), line, column)
FAST_PATH_ERRORS = [
    ("edge 100 101 a\n", "line 104, column 1: duplicate edge 100 101 a", 104, 1),
    # the order breaks on line 104; line 105 repeats line 8, read before the break
    ("edge 1 1 b\nedge 5 6 a\n", "line 105, column 1: duplicate edge 5 6 a", 105, 1),
    ("edge 100 102 a\n", "line 104, column 10: state index 102 out of range 1..101", 104, 10),
    ("edge 0 5 a\n", "line 104, column 6: state index 0 out of range 1..101", 104, 6),
    ("edge 100 x a\n", "line 104, column 10: expected state index, got 'x'", 104, 10),
    ("edge 100 1.5 a\n", "line 104, column 10: expected state index, got '1.5'", 104, 10),
    ("edge 100 101 zz\n", "line 104, column 14: unknown symbol 'zz'", 104, 14),
]


def _constructed(doc):
    """The automaton the public constructor builds from the lines of ``doc``."""
    lines = [line.split() for line in doc.splitlines()]
    alphabet = OrderedAlphabet(tuple(lines[0][1:]))
    edges = [(int(u), int(v), alphabet.rank[tok]) for _, u, v, tok in lines[3:]]
    finals = frozenset(int(i) for i in lines[2][1:])
    return WheelerNfa(int(lines[1][1]), alphabet, tuple(edges), finals)


class TestEdgeFastPath:
    @pytest.mark.parametrize("tail, message, line, column", FAST_PATH_ERRORS)
    def test_errors_after_in_order_edges(self, tail, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_wnfa(IN_ORDER + tail)
        assert (str(err.value), err.value.line, err.value.column) == (message, line, column)

    def test_indices_parse_as_int_does(self):
        doc = IN_ORDER + "edge +100 1_0 b\nedge 0101 101 a\n"
        a = parse_wnfa(doc)
        assert a.edges[-2:] == ((100, 10, 1), (101, 101, 0))
        assert a == _constructed(doc)

    def test_matches_the_public_constructor(self):
        # sorted or shuffled edges, some with a copy of one edge placed
        # before, next to or after its twin
        rng = random.Random(0xED6E)
        modes = ("sorted", "shuffled", "dup-before", "dup-next", "dup-after")
        seen = dict.fromkeys(modes, 0)

        def index(i):
            return rng.choice((str(i), str(i), f"+{i}", f"0{i}"))

        for _ in range(6000):
            sigma, n = rng.randint(1, 3), rng.randint(1, 6)
            symbols = ("a", "b", "c")[:sigma]
            universe = [
                (u, v, k) for u in range(1, n + 1) for v in range(1, n + 1) for k in range(sigma)
            ]
            edges = rng.sample(universe, rng.randint(0, min(len(universe), 10)))
            edges.sort(key=lambda e: (e[0], e[2], e[1]))
            mode = rng.choice(modes)
            if mode == "shuffled" or mode != "sorted" and rng.random() < 0.5:
                rng.shuffle(edges)
            dup = None
            if mode.startswith("dup") and edges:
                k = rng.randrange(len(edges))
                at = {
                    "dup-before": rng.randint(0, k),
                    "dup-next": rng.choice((k, k + 1)),
                    "dup-after": rng.randint(k + 1, len(edges)),
                }[mode]
                edges.insert(at, edges[k])
                # the copy or its twin, whichever comes second, is the duplicate
                dup = k + 1 if at <= k else at
            seen[mode] += 1
            finals = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
            doc = (
                f"alphabet {' '.join(symbols)}\nstates {n}\n"
                + " ".join(["final"] + [str(i) for i in finals]) + "\n"
                + "".join(f"edge {index(u)} {index(v)} {symbols[k]}\n" for u, v, k in edges)
            )
            if dup is None:
                a = parse_wnfa(doc)
                assert a == _constructed(doc) and hash(a) == hash(_constructed(doc))
                assert type(a.edges) is tuple
                continue
            u, v, k = edges[dup]
            with pytest.raises(ParseError) as err:
                parse_wnfa(doc)
            assert (str(err.value), err.value.line) == (
                f"line {dup + 4}, column 1: duplicate edge {u} {v} {symbols[k]}", dup + 4
            )
            with pytest.raises(ValueError, match="duplicate edge"):
                _constructed(doc)
        assert min(seen.values()) >= 1000, seen


def _outcome(parse, doc):
    """What ``parse`` makes of ``doc``: the automaton, or the error's place and text."""
    try:
        return parse(doc)
    except ParseError as err:
        return (str(err), err.line, err.column)


class _Slices(str):
    """A document that records the start of every slice taken of it."""

    def __new__(cls, text):
        doc = super().__new__(cls, text)
        doc.starts = []
        return doc

    def __getitem__(self, key):
        self.starts.append(key.start)
        return str.__getitem__(self, key)


@pytest.fixture
def header_only(monkeypatch):
    """Make the line parser fail on any text that holds an edge line."""
    real = automaton._parse_lines

    def parse_header(text):
        assert "edge" not in text, "the line parser read edge lines"
        return real(text)

    monkeypatch.setattr(automaton, "_parse_lines", parse_header)


class TestEdgeColumns:
    # 40 states on 3 labels: about 80 edge lines, indices of one and two digits
    A = gen_random_wheeler(40, 2, 3, 0xC01)
    DOC = serialize_wnfa(A)
    HEAD, EDGES = DOC.splitlines(keepends=True)[:3], DOC.splitlines(keepends=True)[3:]

    def same_as_line_parser(self, doc):
        expected = _outcome(automaton._parse_lines, doc)
        assert _outcome(parse_wnfa, doc) == expected
        return expected

    def with_edges(self, edges):
        return "".join(self.HEAD + edges)

    def edited(self, k, lines, drop=1):
        """:attr:`DOC` with ``drop`` edge lines from line k on replaced by ``lines``."""
        return self.with_edges(self.EDGES[:k] + lines + self.EDGES[k + drop:])

    @pytest.mark.parametrize("chunk", [1 << 16, 40, 1])
    def test_canonical_documents_skip_the_line_parser(self, header_only, monkeypatch, chunk):
        monkeypatch.setattr(automaton, "_CHUNK", chunk)
        for seed in range(20):
            a = gen_random_wheeler(60, 2, 1 + seed % 4, seed, deterministic=seed % 2 == 0)
            b = parse_wnfa(serialize_wnfa(a))
            assert b == a and type(b.edges) is tuple
        assert parse_wnfa(self.DOC) == self.A
        assert parse_wnfa(serialize_wnfa(gen_chain(3))) == gen_chain(3)

    def test_a_header_without_edges(self, header_only):
        for doc in ("alphabet a\nstates 1\nfinal 1\n", "alphabet\nstates 2\nfinal\n"):
            assert parse_wnfa(doc) == automaton._parse_lines(doc)
            assert serialize_wnfa(parse_wnfa(doc)) == doc

    def perturbed(self):
        """(name, document) pairs, each one edit away from :attr:`DOC`."""
        e, mid = self.EDGES, len(self.EDGES) // 2
        line, toks, nxt = e[mid], e[mid].split(), e[mid + 1].split()
        yield "crlf", self.DOC.replace("\n", "\r\n")
        yield "no final newline", self.DOC[:-1]
        yield "header line ended by '\\x0b'", self.DOC.replace("\n", "\x0b", 1)
        yield "blank line", self.edited(mid, ["\n", line])
        yield "comment line", self.edited(mid, ["# note\n", line])
        yield "leading space", self.edited(mid, [" " + line])
        yield "tab", self.edited(mid, [line.replace(" ", "\t", 1)])
        yield "trailing space", self.edited(mid, [line[:-1] + " \n"])
        short = e[-1][: e[-1].rindex(" ")] + "\n"
        yield "leading space, short last line", self.with_edges([" " + e[0]] + e[1:-1] + [short])
        for ch in "\x0b\x0c\x1c\x85\u2028":
            # between two tokens the line breaks in two; before the newline
            # it only adds an empty line
            yield f"{ch!r} inside", self.edited(mid, [" ".join(toks[:2]) + ch + " ".join(toks[2:]) + "\n"])
            yield f"{ch!r} at the end", self.edited(mid, [line[:-1] + ch + "\n"])
        two = " ".join(toks + nxt) + "\n"
        yield "two edges, blank after", self.edited(mid, [two, "\n"], drop=2)
        yield "two edges, blank before", self.edited(mid, ["\n", two], drop=2)
        yield "line break moved", self.edited(mid, [" ".join(toks + nxt[:3]) + "\n" + nxt[3] + "\n"], drop=2)
        yield "token moved up a line", self.edited(
            mid, [" ".join(toks + nxt[3:]) + "\n" + " ".join(nxt[:3]) + "\n"], drop=2
        )
        k = next(i for i, x in enumerate(e) if len(x.split()[1]) == 2)
        u = e[k].split()[1]
        for spelling in (f"+{u}", f"0{u}", f"{u[0]}_{u[1]}"):
            yield f"index {spelling}", self.edited(k, [e[k].replace(f" {u} ", f" {spelling} ", 1)])

    def test_each_perturbation_gives_what_the_line_parser_gives(self):
        outcomes = [self.same_as_line_parser(doc) for _, doc in self.perturbed()]
        # some perturbations keep the automaton, the others are errors
        assert self.A in outcomes and any(isinstance(o, tuple) for o in outcomes)

    def test_perturbations_other_than_index_spellings_go_to_the_line_parser(self):
        # an index that int() reads, like "+5", leaves the document canonical
        for name, doc in self.perturbed():
            if not name.startswith("index"):
                assert automaton._parse_columns(doc) is None, name

    def test_a_symbol_named_edge(self):
        a = build(("a", "edge"), 3, [(1, 2, "a"), (1, 3, "edge"), (2, 3, "edge")], {3})
        doc = serialize_wnfa(a)
        assert "edge 1 3 edge\n" in doc
        assert automaton._parse_columns(doc) is None
        assert self.same_as_line_parser(doc) == a

    @pytest.mark.parametrize("alphabet", ["a", "edge a"])
    def test_lines_out_of_step_with_the_columns(self, alphabet):
        # lines of 3 and 5 tokens keep 4m tokens and 3m spaces, and read by
        # columns they would be edges (1, 2, edge) and (1, 3, a): only the
        # second line's "edge", which lands in the symbol column, tells
        doc = f"alphabet {alphabet}\nstates 3\nfinal 3\nedge 1 2\nedge x 1 3 a\n"
        assert automaton._parse_columns(doc) is None
        assert self.same_as_line_parser(doc) == (
            "line 4, column 1: edge line takes: edge <src> <dst> <tok>", 4, 1
        )

    @pytest.mark.parametrize(
        "defect", ["duplicate", "swap", "keyword", "bad index", "out of range", "unknown token"]
    )
    def test_defects_on_either_side_of_a_chunk_boundary(self, monkeypatch, defect):
        # chunks of about three lines, and the defect on every line in turn,
        # so it lands on the last line of one chunk and the first of the next
        monkeypatch.setattr(automaton, "_CHUNK", 40)
        e = self.EDGES
        errors = 0
        for k in range(len(e) - 1):
            toks = e[k].split()
            if defect == "duplicate":
                edges = e[: k + 1] + [e[k]] + e[k + 1:]
            elif defect == "swap":
                edges = e[:k] + [e[k + 1], e[k]] + e[k + 2:]
            else:
                at, value = {
                    "keyword": (0, "edgy"),
                    "bad index": (1, "x"),
                    "out of range": (2, "41"),
                    "unknown token": (3, "zz"),
                }[defect]
                toks[at] = value
                edges = e[:k] + [" ".join(toks) + "\n"] + e[k + 1:]
            expected = self.same_as_line_parser(self.with_edges(edges))
            errors += isinstance(expected, tuple)
        # a swap keeps the automaton; every other defect is an error
        assert errors == (0 if defect == "swap" else len(e) - 1)

    @pytest.mark.parametrize("defect", ["source 0", "repeat of the line before"])
    def test_defects_that_open_a_later_chunk(self, monkeypatch, defect):
        # on the first line of a chunk these break no order inside it: only
        # the checks on the chunk's first key and first source can see them
        monkeypatch.setattr(automaton, "_CHUNK", 40)
        e = self.EDGES
        opening = 0
        for k in range(1, len(e)):
            if defect == "source 0":
                toks = e[k].split()
                edges = e[:k] + [" ".join([toks[0], "0"] + toks[2:]) + "\n"] + e[k + 1:]
            else:
                edges = e[:k] + [e[k - 1]] + e[k:]
            doc = _Slices(self.with_edges(edges))
            assert automaton._parse_columns(doc) is None
            # the defect on line k opens a chunk, not the first one
            opening += len("".join(self.HEAD + edges[:k])) in doc.starts[2:]
            assert isinstance(self.same_as_line_parser(doc), tuple)
        assert opening >= 5, opening  # 18 of the 54 cases for either defect


class TestLineEndsOnStandardInput:
    """``wnfa`` reads CR and CRLF line ends on standard input as in a file."""

    DOC = TestEdgeColumns.DOC

    def run(self, capsys, monkeypatch, argv, stdin=b""):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_a_canonical_document_takes_the_column_path(self, header_only, capsys, monkeypatch, end):
        stdin = self.DOC.replace("\n", end).encode()
        assert self.run(capsys, monkeypatch, ["validate", "-"], stdin) == (0, "ok\n", "")

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    @pytest.mark.parametrize("error", ["out of range", "unknown symbol", "no final line"])
    def test_errors_are_those_of_a_file(self, capsys, monkeypatch, tmp_path, end, error):
        lines = self.DOC.splitlines(keepends=True)
        mid = len(lines) // 2
        if error == "out of range":
            toks = lines[mid].split()
            lines[mid] = " ".join([toks[0], "99"] + toks[2:]) + "\n"
        elif error == "unknown symbol":
            lines[mid] = lines[mid][:-1] + "zz\n"
        else:
            del lines[2]
        doc = "".join(lines).replace("\n", end).encode()
        path = tmp_path / "doc.wnfa"
        path.write_bytes(doc)
        code, out, err = self.run(capsys, monkeypatch, ["validate", str(path)])
        assert code == 2 and out == "" and err.startswith(f"{path}: line ")
        expected = (2, "", "-" + err[len(str(path)):])
        assert self.run(capsys, monkeypatch, ["validate", "-"], doc) == expected


def test_dot_export(sample_nfa):
    dot = to_dot(sample_nfa)
    assert dot.startswith("digraph")
    assert dot.count("doublecircle") == 2  # two final states
    assert '1 -> 2 [label="a"];' in dot
    assert dot.count("->") == len(sample_nfa.edges)


def test_dot_quotes_special_labels():
    a = build(('x"y',), 1, [(1, 1, 'x"y')], {1})
    assert '\\"' in to_dot(a)
