import pytest

from wnfa import ParseError, gen_chain, gen_distinctness, parse_wnfa, serialize_wnfa, to_dot

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


def test_empty_final_line():
    # final states may be absent only syntactically; such automata fail
    # validation (no co-reachable states) but must parse
    a = parse_wnfa("alphabet a\nstates 1\nfinal\n")
    assert a.finals == frozenset()


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


def test_dot_export(sample_nfa):
    dot = to_dot(sample_nfa)
    assert dot.startswith("digraph")
    assert dot.count("doublecircle") == 2  # two final states
    assert '1 -> 2 [label="a"];' in dot
    assert dot.count("->") == len(sample_nfa.edges)


def test_dot_quotes_special_labels():
    a = build(('x"y',), 1, [(1, 1, 'x"y')], {1})
    assert '\\"' in to_dot(a)
