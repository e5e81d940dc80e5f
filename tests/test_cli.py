import errno
import gc
import io
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from wnfa import (
    OrderedAlphabet,
    ParseError,
    WheelerNfa,
    boundary_bits,
    compose,
    format_trace,
    gen_chain,
    gen_distinctness,
    gen_random_wheeler,
    inverse,
    minimize,
    parse_wnfa,
    quotient,
    serialize_relation,
    serialize_wnfa,
    to_dot,
    validate,
    wheeler_bisimilar,
)
from wnfa import automaton, cli, forked
from wnfa.cli import main

from conftest import build, reference_trace, unorderable_three_state


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return str(p)

    return write, tmp_path


CHAIN3 = "alphabet a\nstates 3\nfinal 1 3\nedge 1 1 a\nedge 1 2 a\nedge 2 3 a\n"
# what follows the line and column of a 0xff byte in an input
NOT_UTF8 = "can't decode byte 0xff as UTF-8: invalid start byte"
IDENTITY3 = "relation 3 3\npair 1 1\npair 2 2\npair 3 3\n"
# an input whose state 3 is neither reachable nor co-reachable
UNREACHABLE = "alphabet a\nstates 3\nfinal 2\nedge 1 2 a\n"
SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestValidateCommand:
    def test_valid_input(self, files, capsys):
        write, _ = files
        assert main(["validate", write("a.wnfa", CHAIN3)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_violations_exit_one(self, files, capsys):
        write, _ = files
        bad = unorderable_three_state()[0]
        code = main(["validate", write("bad.wnfa", serialize_wnfa(bad))])
        assert code == 1
        assert "Axiom2" in capsys.readouterr().out

    def test_parse_error_exit_two(self, files, capsys):
        write, _ = files
        with pytest.raises(SystemExit) as err:
            main(["validate", write("broken.wnfa", "alphabet a\nstates x\n")])
        assert err.value.code == 2
        assert "state count" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["validate", str(tmp_path / "nope.wnfa")])
        assert err.value.code == 2

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CHAIN3.encode())))
        assert main(["validate", "-"]) == 0

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        # the text layer a C locale gives stdin turns the byte into a surrogate
        data = b"alphabet a\nstates 1\nfinal 1\nedge 1 1 \xff\n"
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        with pytest.raises(SystemExit) as err:
            main(["validate", "-"])
        assert err.value.code == 2
        assert capsys.readouterr() == ("", f"-: line 4, column 10: {NOT_UTF8}\n")

    def test_stdin_closed(self, capsys, monkeypatch):
        # a process started with stdin closed sees sys.stdin as None
        monkeypatch.setattr("sys.stdin", None)
        with pytest.raises(SystemExit) as err:
            main(["validate", "-"])
        assert err.value.code == 2
        assert capsys.readouterr() == ("", "-: standard input is closed\n")


class TestMinimizeCommand:
    def test_distinctness_merges(self, files, capsys):
        write, _ = files
        path = write("g.wnfa", serialize_wnfa(gen_distinctness("abb")))
        assert main(["minimize", path]) == 0
        out = capsys.readouterr().out
        assert "states 4" in out
        assert "class 3 3" in out and "class 4 3" in out

    def test_separate_outputs(self, files):
        write, tmp = files
        path = write("g.wnfa", serialize_wnfa(gen_distinctness("abb")))
        out = tmp / "min.wnfa"
        cmap = tmp / "classes.txt"
        trace = tmp / "trace.tsv"
        dot = tmp / "min.dot"
        code = main(
            [
                "minimize",
                path,
                "-o",
                str(out),
                "--class-map",
                str(cmap),
                "--trace",
                str(trace),
                "--dot",
                str(dot),
            ]
        )
        assert code == 0
        assert parse_wnfa(out.read_text()).n == 4
        lines = cmap.read_text().splitlines()
        assert lines == ["class 1 1", "class 2 2", "class 3 3", "class 4 3", "class 5 4"]
        assert all("\t" in line for line in trace.read_text().splitlines())
        assert dot.read_text().startswith("digraph")

    def test_invalid_input_exit_one(self, files, capsys):
        write, _ = files
        bad = unorderable_three_state()[0]
        assert main(["minimize", write("bad.wnfa", serialize_wnfa(bad))]) == 1
        assert "Axiom2" in capsys.readouterr().err

    def test_output_without_class_map(self, files, capsys):
        write, tmp = files
        g = gen_distinctness("abb")
        path = write("g.wnfa", serialize_wnfa(g))
        q = tmp / "q.wnfa"
        assert main(["minimize", path, "-o", str(q)]) == 0
        out = capsys.readouterr().out
        assert q.read_text() == serialize_wnfa(minimize(g).quotient)
        assert out == "class 1 1\nclass 2 2\nclass 3 3\nclass 4 3\nclass 5 4\n"
        assert main(["equiv", path, str(q)]) == 0

    def test_already_minimal_output_round_trips(self, files, capsys):
        write, _ = files
        assert main(["minimize", write("c.wnfa", CHAIN3)]) == 0
        out = capsys.readouterr().out
        doc = out[: out.index("class")]
        assert parse_wnfa(doc) == parse_wnfa(CHAIN3)


class TestEquivCommand:
    def test_chains_differ(self, files, capsys):
        write, _ = files
        a = write("c3.wnfa", serialize_wnfa(gen_chain(3)))
        b = write("c4.wnfa", serialize_wnfa(gen_chain(4)))
        assert main(["equiv", a, b]) == 1
        assert "SizeMismatch" in capsys.readouterr().out

    def test_automaton_vs_its_quotient(self, files, capsys):
        write, tmp = files
        g = gen_distinctness("abb")
        result = minimize(g)
        a = write("g.wnfa", serialize_wnfa(g))
        b = write("q.wnfa", serialize_wnfa(result.quotient))
        inputs = sorted(tmp.iterdir())
        assert main(["equiv", a, b]) == 0
        assert capsys.readouterr() == ("Isomorphic\n", "")
        assert sorted(tmp.iterdir()) == inputs
        witness = tmp / "w.rel"
        assert main(["equiv", a, b, "--witness", str(witness)]) == 0
        assert capsys.readouterr() == ("Isomorphic\n", "")
        assert witness.read_text() == serialize_relation(result.as_relation())

    def test_witness_longer_than_a_block(self, files, capsys):
        """Two all-final looped chains merge into one state each, so all 5,000 pairs relate."""
        write, tmp = files
        paths, results = [], []
        for n in (100, 50):
            edges = [(i, i + 1, 0) for i in range(1, n)] + [(n, n, 0)]
            chain = WheelerNfa(n, OrderedAlphabet(("a",)), edges, range(1, n + 1))
            paths.append(write(f"c{n}.wnfa", serialize_wnfa(chain)))
            results.append(minimize(chain))
        witness = tmp / "w.rel"
        assert main(["equiv", *paths, "--witness", str(witness)]) == 0
        assert capsys.readouterr() == ("Isomorphic\n", "")
        r1, r2 = (r.as_relation() for r in results)
        reference = compose(inverse(r2), r1)
        assert len(reference.pairs) == 5000 > automaton._BLOCK
        assert witness.read_text() == serialize_relation(reference)

    def test_minimal_non_isomorphic_pair(self, files, capsys):
        write, _ = files
        a = write("l.wnfa", "alphabet a\nstates 2\nfinal 2\nedge 1 1 a\nedge 1 2 a\n")
        b = write("r.wnfa", "alphabet a\nstates 2\nfinal 2\nedge 1 2 a\nedge 2 2 a\n")
        assert main(["equiv", a, b]) == 1
        assert "NotIsomorphic" in capsys.readouterr().out

    def test_invalid_input_exit_two(self, files):
        write, _ = files
        bad = write("bad.wnfa", serialize_wnfa(unorderable_three_state()[0]))
        good = write("good.wnfa", CHAIN3)
        assert main(["equiv", bad, good]) == 2


def run_main(argv, capsys):
    """``main(argv)`` in-process: its exit code, stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch, child_exits_at_once):
    """The pids of the children forked from now on; each exits at once, unsent, if asked."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid == 0 and child_exits_at_once:
            os._exit(0)
        if pid != 0:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def break_fork(monkeypatch, how):
    """Make each fork from now on fail, be missing, or give a child that sends nothing."""
    if how == "fork-fails":
        def refuse():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refuse)
    elif how == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        return count_forks(monkeypatch, True)


# `minimize` and `equiv` fork a child only for inputs of millions of
# characters; tests of the forked path lower the threshold to this, so that
# a trailing comment line of 32 Ki characters takes a short document past it
FORK_AT = 1 << 15
PAD = "#" * FORK_AT + "\n"
INPUTS = {
    "ok": CHAIN3 + PAD,
    "malformed": "alphabet a\nstates x\n" + PAD,
    "invalid": UNREACHABLE + PAD,
}


@pytest.fixture
def low_thresholds(monkeypatch):
    monkeypatch.setattr(forked, "_MIN_CHARS", FORK_AT)


def usable_cpus(monkeypatch, count):
    """Make ``wnfa.forked`` see ``count`` usable CPUs; a list that grows by one per look."""
    looks = []
    monkeypatch.setattr(forked, "_cpus", lambda: looks.append(count) or count)
    return looks


@pytest.fixture
def two_cpus(monkeypatch):
    """Whatever the host, the rule forks on the input's size alone."""
    return usable_cpus(monkeypatch, 2)


def padded(doc, chars):
    """``doc`` with a trailing comment line that makes it ``chars`` characters long."""
    return doc + "#" * (chars - len(doc) - 1) + "\n"


def equiv_message(kind, path):
    """The diagnostic ``equiv`` gives for an input of ``kind`` at ``path``."""
    return {
        "missing": f"{path}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{path}'\n",
        "malformed": f"{path}: line 2, column 8: expected state count, got 'x'\n",
        "invalid": (
            f"{path}:\nNotReachable: state 3 has no path from the initial state\n"
            "NotCoReachable: state 3 has no path to a final state\n"
        ),
        "closed": f"{path}: standard input is closed\n",
        "undecodable": f"{path}: line 2, column 8: {NOT_UTF8}\n",
    }[kind]


@pytest.mark.usefixtures("low_thresholds", "two_cpus")
class TestEquivSides:
    """`equiv` prepares its second input in a forked child: the same answers, in the same order."""

    def paths(self, files, kind_a, kind_b):
        write, tmp = files
        paths = []
        for side, kind in (("a", kind_a), ("b", kind_b)):
            path = tmp / f"{side}.wnfa"
            if kind == "undecodable":
                path.write_bytes(b"alphabet a\nstates \xff\n" + PAD.encode())
            elif kind != "missing":
                write(path.name, INPUTS[kind])
            paths.append(str(path))
        return paths

    # A's read or parse error, then B's, then A's validation report, then B's;
    # bytes that are not UTF-8 are a read error
    @pytest.mark.parametrize(
        "kind_a, kind_b, reported",
        [
            ("missing", "ok", "a"),
            ("missing", "missing", "a"),
            ("missing", "malformed", "a"),
            ("missing", "invalid", "a"),
            ("malformed", "ok", "a"),
            ("malformed", "missing", "a"),
            ("malformed", "malformed", "a"),
            ("malformed", "invalid", "a"),
            ("invalid", "missing", "b"),
            ("invalid", "malformed", "b"),
            ("invalid", "invalid", "a"),
            ("invalid", "ok", "a"),
            ("ok", "missing", "b"),
            ("ok", "malformed", "b"),
            ("ok", "invalid", "b"),
            ("undecodable", "missing", "a"),
            ("undecodable", "malformed", "a"),
            ("missing", "undecodable", "a"),
            ("malformed", "undecodable", "a"),
            ("invalid", "undecodable", "b"),
            ("ok", "undecodable", "b"),
        ],
    )
    def test_error_order(self, files, capsys, kind_a, kind_b, reported):
        a, b = self.paths(files, kind_a, kind_b)
        path, kind = (a, kind_a) if reported == "a" else (b, kind_b)
        assert run_main(["equiv", a, b], capsys) == (2, "", equiv_message(kind, path))
        assert_no_child_left()

    @pytest.mark.parametrize(
        "argv, stdin, expected",
        [
            (["-", "{ok}"], "ok", (0, "Isomorphic\n", "")),
            (["{ok}", "-"], "ok", (0, "Isomorphic\n", "")),
            (["-", "{ok}"], "malformed", (2, "", equiv_message("malformed", "-"))),
            (["{ok}", "-"], "malformed", (2, "", equiv_message("malformed", "-"))),
            (["-", "{invalid}"], "ok", (2, "", equiv_message("invalid", "{invalid}"))),
            (["{invalid}", "-"], "malformed", (2, "", equiv_message("malformed", "-"))),
            # a path named twice is read once, so both sides are stdin's text
            (["-", "-"], "ok", (0, "Isomorphic\n", "")),
            (["{ok}", "-"], None, (2, "", equiv_message("closed", "-"))),
            (["{invalid}", "-"], None, (2, "", equiv_message("closed", "-"))),
            (["{malformed}", "-"], None, (2, "", equiv_message("malformed", "{malformed}"))),
            (["-", "{ok}"], None, (2, "", equiv_message("closed", "-"))),
        ],
        ids=[
            "a-ok", "b-ok", "a-malformed", "b-malformed", "b-invalid", "b-malformed-after-a-invalid",
            "both", "b-closed", "b-closed-after-a-invalid", "a-malformed-before-b-closed",
            "a-closed",
        ],
    )
    def test_stdin_as_either_side(self, files, capsys, monkeypatch, argv, stdin, expected):
        write, _ = files
        paths = {kind: write(f"{kind}.wnfa", text) for kind, text in INPUTS.items()}
        if stdin is not None:
            stdin = io.TextIOWrapper(io.BytesIO(INPUTS[stdin].encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = expected
        argv = ["equiv", *(arg.format(**paths) for arg in argv)]
        assert run_main(argv, capsys) == (code, out, err.format(**paths))
        assert_no_child_left()

    def pairs(self):
        """Bisimilar pairs, with states merging on one side or both."""
        g = gen_distinctness("abb")
        r = gen_random_wheeler(300, 2, 3, 5)
        assert minimize(r).quotient.n < r.n
        return [(g, g), (g, minimize(g).quotient), (r, r), (r, minimize(r).quotient)]

    def test_witness_is_the_sequential_verdicts(self, files, capsys):
        write, tmp = files
        witness = tmp / "w.rel"
        for left, right in self.pairs():
            verdict = wheeler_bisimilar(left, right)
            argv = [
                "equiv", write("l.wnfa", serialize_wnfa(left) + PAD),
                write("r.wnfa", serialize_wnfa(right) + PAD), "--witness", str(witness),
            ]
            assert run_main(argv, capsys) == (0, "Isomorphic\n", "")
            assert witness.read_text() == serialize_relation(verdict.witness)
            assert_no_child_left()

    def corpus(self, files):
        """``equiv`` runs reaching each outcome, and the witness path of the first."""
        write, tmp = files
        left, right = self.pairs()[3]
        ok = write("ok.wnfa", serialize_wnfa(left) + PAD)
        q = write("q.wnfa", serialize_wnfa(right) + PAD)
        other = write("other.wnfa", serialize_wnfa(gen_random_wheeler(300, 2, 3, 6)) + PAD)
        malformed = write("malformed.wnfa", INPUTS["malformed"])
        invalid = write("invalid.wnfa", INPUTS["invalid"])
        witness = tmp / "w.rel"
        return [
            ["equiv", ok, q, "--witness", str(witness)],
            ["equiv", q, ok],
            ["equiv", ok, other],
            ["equiv", ok, invalid],
            ["equiv", ok, malformed],
            ["equiv", invalid, malformed],
            ["equiv", malformed, ok],
        ], witness

    def answers(self, corpus, witness, capsys):
        answers = [run_main(argv, capsys) for argv in corpus]
        answers.append(witness.read_text())
        witness.unlink()
        return answers

    def test_one_child_when_both_inputs_are_long(self, files, capsys, monkeypatch):
        write, _ = files
        corpus, _ = self.corpus(files)
        forks = count_forks(monkeypatch, False)
        for argv in corpus:
            run_main(argv, capsys)
        assert len(forks) == len(corpus)
        # a short input on either side, or an unreadable second one: no child
        long, short = corpus[0][1], write("short.wnfa", CHAIN3)
        assert run_main(["equiv", long, short], capsys)[0] == 1
        assert run_main(["equiv", short, long], capsys)[0] == 1
        assert run_main(["equiv", long, "missing.wnfa"], capsys)[0] == 2
        assert len(forks) == len(corpus)
        assert_no_child_left()

    @pytest.mark.parametrize("how", ["fork-fails", "no-fork", "child-sends-nothing"])
    def test_in_process_fallback(self, files, capsys, monkeypatch, how):
        corpus, witness = self.corpus(files)
        expected = self.answers(corpus, witness, capsys)
        forks = break_fork(monkeypatch, how)
        assert self.answers(corpus, witness, capsys) == expected
        if how == "child-sends-nothing":
            assert len(forks) == len(corpus)
        assert_no_child_left()

    def test_no_child_on_one_cpu(self, files, capsys, monkeypatch):
        corpus, witness = self.corpus(files)
        forks = count_forks(monkeypatch, False)
        expected = self.answers(corpus, witness, capsys)
        assert len(forks) == len(corpus)
        usable_cpus(monkeypatch, 1)
        assert self.answers(corpus, witness, capsys) == expected
        assert len(forks) == len(corpus)
        assert_no_child_left()

    @pytest.mark.parametrize("path", ["first-malformed", "interrupt", "error"])
    def test_a_running_child_is_killed_and_reaped(self, files, capsys, monkeypatch, path):
        # the child hangs in its parse, so only a kill ends it in time
        parent = os.getpid()
        parse = cli.parse_wnfa

        def parse_or_hang(text):
            if os.getpid() != parent:
                time.sleep(60)
            elif path == "interrupt":
                raise KeyboardInterrupt
            elif path == "error":
                raise RuntimeError("the parent's side failed")
            return parse(text)

        monkeypatch.setattr(cli, "parse_wnfa", parse_or_hang)
        a, b = self.paths(files, "malformed" if path == "first-malformed" else "ok", "ok")
        raised = {"first-malformed": SystemExit, "interrupt": KeyboardInterrupt}
        start = time.monotonic()
        with pytest.raises(raised.get(path, RuntimeError)):
            main(["equiv", a, b])
        assert time.monotonic() - start < 30
        assert_no_child_left()
        err = capsys.readouterr().err
        assert err == (equiv_message("malformed", a) if path == "first-malformed" else "")


# A DFA that breaks Axiom 3 (and reachability) on which quotient(a,
# boundary_bits(a)) raises ValueError: it went non-deterministic
CROSSING_DFA = (
    "alphabet a b\nstates 6\nfinal 2\n"
    "edge 1 4 a\nedge 2 5 a\nedge 2 6 b\nedge 3 6 b\nedge 4 5 b\nedge 5 3 a\n"
)
MINIMIZE_OUTPUTS = ("q.wnfa", "m.txt", "t.tsv", "d.dot")


@pytest.mark.usefixtures("low_thresholds", "two_cpus")
class TestMinimizeSides:
    """`minimize` validates in a forked child: the same answers, no output for an invalid input."""

    def test_invalid_input_writes_nothing(self, files, capsys):
        write, tmp = files
        a = parse_wnfa(CROSSING_DFA)
        with pytest.raises(ValueError, match="went non-deterministic"):
            quotient(a, boundary_bits(a))
        out, cmap = tmp / "q.wnfa", tmp / "m.txt"
        path = write("x.wnfa", CROSSING_DFA + PAD)
        argv = ["minimize", path, "-o", str(out), "--class-map", str(cmap)]
        assert run_main(argv, capsys) == (1, "", validate(a).describe(a) + "\n")
        assert not out.exists() and not cmap.exists()
        assert_no_child_left()

    def corpus(self, files):
        """(argv, the document it minimizes, whether it writes files) per run, padded or not."""
        write, tmp = files
        documents = {
            "merging": serialize_wnfa(gen_random_wheeler(300, 2, 3, 5)),
            "distinctness": serialize_wnfa(gen_distinctness("abb")),
            "crossing": CROSSING_DFA,
            "unreachable": UNREACHABLE,
        }
        to_files = ["-o", "q.wnfa", "--class-map", "m.txt", "--trace", "t.tsv", "--dot", "d.dot"]
        runs = []
        for name, doc in documents.items():
            for pad in ("", PAD):
                path = write(f"{name}{len(pad)}.wnfa", doc + pad)
                runs.append((["minimize", path], doc, False))
                argv = ["minimize", path, *(str(tmp / a) if "." in a else a for a in to_files)]
                runs.append((argv, doc, True))
                runs.append((["minimize", path, "--trace", "-"], doc, False))
        return runs

    def sequential(self, doc, to_files, trace_to_stdout):
        """What validating, then minimizing, then writing each output gives for ``doc``."""
        a = parse_wnfa(doc)
        report = validate(a)
        if not report.ok:
            return (1, "", report.describe(a) + "\n"), (None,) * 4
        trace = []
        result = quotient(a, boundary_bits(a, trace))
        texts = (
            serialize_wnfa(result.quotient),
            "".join(f"class {p} {c}\n" for p, c in enumerate(result.class_map, 1)),
            format_trace(trace),
            to_dot(result.quotient),
        )
        if to_files:
            return (0, "", ""), texts
        out = texts[0] + texts[1] + (texts[2] if trace_to_stdout else "")
        return (0, out, ""), (None,) * 4

    def answers(self, runs, files, capsys):
        """Each run's exit code, stdout and stderr, and the text of each output file."""
        _, tmp = files
        answers = []
        for argv, _, _ in runs:
            answer = run_main(argv, capsys)
            written = []
            for name in MINIMIZE_OUTPUTS:
                path = tmp / name
                written.append(path.read_text() if path.exists() else None)
                path.unlink(missing_ok=True)
            answers.append((answer, tuple(written)))
        return answers

    def expected(self, runs):
        return [self.sequential(doc, to_files, "-" in argv) for argv, doc, to_files in runs]

    def test_one_child_per_long_input(self, files, capsys, monkeypatch):
        runs = self.corpus(files)
        forks = count_forks(monkeypatch, False)
        assert self.answers(runs, files, capsys) == self.expected(runs)
        assert len(forks) == len(runs) // 2  # the padded half
        assert_no_child_left()

    def test_no_child_on_one_cpu(self, files, capsys, monkeypatch):
        runs = self.corpus(files)
        forks = count_forks(monkeypatch, False)
        expected = self.answers(runs, files, capsys)
        assert len(forks) == len(runs) // 2
        usable_cpus(monkeypatch, 1)
        assert self.answers(runs, files, capsys) == expected
        assert len(forks) == len(runs) // 2
        assert_no_child_left()

    @pytest.mark.parametrize(
        "pad, cpus", [("", 2), (PAD, 2), (PAD, 1)], ids=["short", "no-fork", "one-cpu"]
    )
    def test_in_process_an_invalid_input_is_not_minimized(
        self, files, capsys, monkeypatch, pad, cpus
    ):
        write, _ = files
        usable_cpus(monkeypatch, cpus)
        if pad and cpus > 1:
            break_fork(monkeypatch, "no-fork")
        calls = []
        monkeypatch.setattr(cli, "_propagate", lambda a: calls.append(a))
        a = parse_wnfa(UNREACHABLE)
        argv = ["minimize", write("u.wnfa", UNREACHABLE + pad)]
        assert run_main(argv, capsys) == (1, "", validate(a).describe(a) + "\n")
        assert calls == []

    @pytest.mark.parametrize("how", ["fork-fails", "no-fork", "child-sends-nothing"])
    def test_in_process_fallback(self, files, capsys, monkeypatch, how):
        runs = self.corpus(files)
        forks = break_fork(monkeypatch, how)
        assert self.answers(runs, files, capsys) == self.expected(runs)
        if how == "child-sends-nothing":
            assert len(forks) == len(runs) // 2
        assert_no_child_left()

    @pytest.mark.parametrize("pad", ["", PAD], ids=["short", "long"])
    def test_a_value_error_from_a_valid_input_is_raised(self, files, capsys, monkeypatch, pad):
        write, tmp = files

        def fault(a, bits):
            raise ValueError("a fault in quotient")

        monkeypatch.setattr(cli, "_quotient_by_representatives", fault)
        out = tmp / "q.wnfa"
        with pytest.raises(ValueError, match="a fault in quotient"):
            main(["minimize", write("ok.wnfa", CHAIN3 + pad), "-o", str(out)])
        assert capsys.readouterr() == ("", "") and not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("path", ["interrupt", "error"])
    def test_a_running_child_is_killed_and_reaped(self, files, capsys, monkeypatch, path):
        # the child hangs in its validation, so only a kill ends it in time
        write, tmp = files
        parent = os.getpid()

        def validate_or_hang(a):
            if os.getpid() != parent:
                time.sleep(60)
            return validate(a)

        def fail(a):
            if path == "interrupt":
                raise KeyboardInterrupt
            raise RuntimeError("the parent's side failed")

        monkeypatch.setattr(cli, "validate", validate_or_hang)
        monkeypatch.setattr(cli, "_propagate", fail)
        out = tmp / "q.wnfa"
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt if path == "interrupt" else RuntimeError):
            main(["minimize", write("ok.wnfa", INPUTS["ok"]), "-o", str(out)])
        assert time.monotonic() - start < 30
        assert_no_child_left()
        assert capsys.readouterr() == ("", "") and not out.exists()


class TestForkThresholds:
    """At the real threshold: perfbench's inputs run in one process, and both
    commands fork from the threshold on."""

    def test_perfbench_sized_inputs_run_in_one_process(
        self, sized_inputs, capsys, monkeypatch, two_cpus
    ):
        paths = sized_inputs["large"]  # as `gen random --n 20000 --seed 5`
        assert 500_000 < os.path.getsize(paths["a"]) < forked._MIN_CHARS
        forks = count_forks(monkeypatch, False)
        argv = ["minimize", paths["a"], "-o", paths["out"], "--class-map", os.devnull]
        assert run_main(argv, capsys) == (0, "", "")
        assert run_main(["equiv", paths["a"], paths["q"]], capsys) == (0, "Isomorphic\n", "")
        assert run_main(["equiv", paths["a"], paths["b"]], capsys)[0] == 1
        assert forks == []
        assert two_cpus == []  # below the threshold the CPUs are not counted

    @pytest.mark.parametrize("command", ["minimize", "equiv"])
    @pytest.mark.usefixtures("two_cpus")
    def test_one_child_from_the_threshold_on(self, files, capsys, monkeypatch, command):
        write, _ = files
        forks = count_forks(monkeypatch, False)
        answers = []
        for chars, children in ((forked._MIN_CHARS - 1, 0), (forked._MIN_CHARS, 1)):
            path = write(f"{chars}.wnfa", padded(CHAIN3, chars))
            answers.append(run_main([command, path] + [path] * (command == "equiv"), capsys))
            assert len(forks) == children
        assert answers[0] == answers[1] and answers[0][0] == 0
        assert_no_child_left()

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert forked._cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert forked._cpus() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert forked._cpus() == 1


class TestCheckRelationCommand:
    def fixture_paths(self, files):
        write, _ = files
        branchy = build(
            "abcd",
            4,
            [
                (1, 2, "a"),
                (1, 2, "b"),
                (1, 3, "b"),
                (1, 4, "b"),
                (1, 4, "c"),
                (2, 4, "d"),
                (4, 4, "d"),
            ],
            {1, 2, 3, 4},
        )
        variant = build(
            "abcd",
            4,
            [
                (1, 2, "a"),
                (1, 2, "b"),
                (1, 3, "b"),
                (1, 4, "c"),
                (2, 4, "d"),
                (4, 4, "d"),
            ],
            {1, 2, 3, 4},
        )
        rel = "relation 4 4\npair 1 1\npair 2 2\npair 3 3\npair 4 2\npair 4 4\n"
        return (
            write("a.wnfa", serialize_wnfa(branchy)),
            write("b.wnfa", serialize_wnfa(variant)),
            write("r.rel", rel),
        )

    def test_standard_passes(self, files, capsys):
        a, b, r = self.fixture_paths(files)
        assert main(["check-relation", a, b, r, "--standard"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_wheeler_fails_with_interval_witness(self, files, capsys):
        a, b, r = self.fixture_paths(files)
        assert main(["check-relation", a, b, r, "--wheeler"]) == 1
        out = capsys.readouterr().out
        assert "(4, 4)" in out and "[2, 4]" in out

    def test_identity_wheeler_ok(self, files, capsys):
        write, _ = files
        a = write("c.wnfa", CHAIN3)
        r = write("id.rel", "relation 3 3\npair 1 1\npair 2 2\npair 3 3\n")
        assert main(["check-relation", a, a, r, "--wheeler"]) == 0

    def test_identity_on_stdin_named_twice(self, files, capsys, monkeypatch):
        write, _ = files
        r = write("id.rel", IDENTITY3)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CHAIN3.encode())))
        assert run_main(["check-relation", "-", "-", r, "--wheeler"], capsys) == (0, "ok\n", "")

    def test_relation_parse_error(self, files, capsys):
        write, _ = files
        a = write("c.wnfa", CHAIN3)
        r = write("bad.rel", "relation 3\n")
        with pytest.raises(SystemExit) as err:
            main(["check-relation", a, a, r, "--standard"])
        assert err.value.code == 2
        assert capsys.readouterr() == (
            "",
            f"{r}: line 1, column 1: relation line takes: relation <n> <n'>\n",
        )

    def test_size_mismatch_is_usage_error(self, files, capsys):
        write, _ = files
        a = write("c.wnfa", CHAIN3)
        r = write("r.rel", "relation 2 2\npair 1 1\n")
        assert main(["check-relation", a, a, r, "--standard"]) == 2

    @pytest.mark.parametrize("mode", ["--standard", "--wheeler"])
    def test_size_mismatch_names_the_relation_and_sizes(self, files, capsys, mode):
        write, _ = files
        a = write("c.wnfa", CHAIN3)
        r = write("r.rel", "relation 1 1\npair 1 1\n")
        assert main(["check-relation", a, a, r, mode]) == 2
        assert capsys.readouterr() == (
            "",
            f"{r}: relation 1 1 does not match the automata, which have 3 and 3 states\n",
        )

    def test_mode_flag_required(self, files):
        a, b, r = self.fixture_paths(files)
        with pytest.raises(SystemExit) as err:
            main(["check-relation", a, b, r])
        assert err.value.code == 2

    def test_alphabets_ranking_tokens_differently(self, files, capsys):
        # b is rank 1 on the left and rank 0 on the right
        write, tmp_path = files
        x = write("x.wnfa", "alphabet a b\nstates 2\nfinal 2\nedge 1 2 b\n")
        y = write("y.wnfa", "alphabet b\nstates 2\nfinal 2\nedge 1 2 b\n")
        w = str(tmp_path / "w.rel")
        assert main(["equiv", x, y, "--witness", w]) == 0
        assert main(["check-relation", x, y, w, "--wheeler"]) == 0
        assert main(["check-relation", x, y, w, "--standard"]) == 0
        # equal ranks, different tokens: the edges must not match
        z = write("z.wnfa", "alphabet a b\nstates 2\nfinal 2\nedge 1 2 a\n")
        capsys.readouterr()
        assert main(["check-relation", z, y, w, "--standard"]) == 1
        assert capsys.readouterr().out == (
            "forward: pair (1, 1) cannot match the left edge (src=1, dst=2, label-rank=0)\n"
        )


class TestUnreadableInput:
    def exit_two(self, argv, capsys, path):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == "" and err_text.startswith(f"{path}: ")
        return err_text

    def test_missing_relation(self, files, capsys):
        write, tmp = files
        a = write("c.wnfa", CHAIN3)
        r = str(tmp / "missing.rel")
        text = self.exit_two(["check-relation", a, a, r, "--standard"], capsys, r)
        assert "No such file" in text

    def test_relation_is_a_directory(self, files, capsys):
        write, tmp = files
        a = write("c.wnfa", CHAIN3)
        text = self.exit_two(["check-relation", a, a, str(tmp), "--wheeler"], capsys, tmp)
        assert "Is a directory" in text

    def test_automaton_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "x.wnfa"
        path.write_bytes(b"alphabet a\nstates 1\nfinal 1\nedge 1 1 \xff\n")
        text = self.exit_two(["validate", str(path)], capsys, path)
        assert text == f"{path}: line 4, column 10: {NOT_UTF8}\n"

    def test_relation_not_utf8(self, files, capsys):
        write, tmp = files
        a = write("c.wnfa", CHAIN3)
        r = tmp / "r.rel"
        r.write_bytes(b"relation 3 3\npair 1 1\xff\n")
        text = self.exit_two(["check-relation", a, a, str(r), "--standard"], capsys, r)
        assert text == f"{r}: line 2, column 9: {NOT_UTF8}\n"

    def test_relation_not_utf8_on_stdin(self, files, capsys, monkeypatch):
        write, _ = files
        a = write("c.wnfa", CHAIN3)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"relation 3 3\n\xff")))
        text = self.exit_two(["check-relation", a, a, "-", "--wheeler"], capsys, "-")
        assert text == f"-: line 2, column 1: {NOT_UTF8}\n"

    @pytest.mark.parametrize(
        "head",
        [
            "alphabet a\nstates 1\nfinal 1\n",
            "alphabet a\r\nstates 1\r\nfinal 1\r\n",
            "alphabet a\rstates 1\rfinal 1\r",
            "alphabet a\nstates 1\x0bfinal 1\n# \ufeff\u00e9\u3000\U0001f600\n",
        ],
        ids=["lf", "crlf", "cr", "vt-wide"],
    )
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_the_position_is_the_parsers(self, tmp_path, capsys, monkeypatch, head, source):
        # a byte that is not UTF-8 is placed where the parser places an
        # unknown symbol in its stead: lines and characters of the decoded
        # text, with its line ends translated
        line = "edge 1\u3000\u00a01 "
        with pytest.raises(ParseError) as err:
            parse_wnfa(head + line + "zz\n")
        where = f"line {err.value.line}, column {err.value.column}"
        data = (head + line).encode() + b"\xff\n"
        path = "-" if source == "stdin" else str(tmp_path / "x.wnfa")
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        else:
            Path(path).write_bytes(data)
        assert self.exit_two(["minimize", path], capsys, path) == f"{path}: {where}: {NOT_UTF8}\n"

    def test_a_truncated_character(self, tmp_path, capsys):
        path = tmp_path / "x.wnfa"
        path.write_bytes("alphabet \u00e9 a\n".encode()[:-4])
        text = self.exit_two(["validate", str(path)], capsys, path)
        reason = "can't decode byte 0xc3 as UTF-8: unexpected end of data"
        assert text == f"{path}: line 1, column 10: {reason}\n"


def exit_with_closed(argv, fds, stderr=subprocess.PIPE):
    """Run the CLI with ``fds`` closed; a process started so sees those streams as None.

    The streams are buffered, as by default: a failed write leaves its bytes
    in the buffer, for the interpreter's final flush to fail on again.
    Returns the exit code, stdout and stderr (None unless ``stderr`` is a pipe).
    """
    launch = (
        "import os, sys\n"
        f"for fd in {tuple(fds)!r}:\n"
        "    os.close(fd)\n"
        f"os.execv(sys.executable, [sys.executable, '-m', 'wnfa.cli', *{argv!r}])\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-c", launch],
        env=env,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestUnwritableOutput:
    def test_stdout_closed(self):
        assert exit_with_closed(["gen", "chain", "3"], [1]) == (
            2, "", "-: standard output is closed\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{a}"],
            ["equiv", "{a}", "{a}"],
            ["check-relation", "{a}", "{a}", "{r}", "--wheeler"],
            ["--dev", "oracle", "{a}"],
            ["--dev", "std-bisim", "{a}"],
        ],
        ids=["validate", "equiv", "check-relation", "dev-oracle", "dev-std-bisim"],
    )
    def test_every_answer_with_stdout_closed(self, files, argv):
        write, _ = files
        paths = dict(a=write("c.wnfa", CHAIN3), r=write("r.rel", IDENTITY3))
        argv = [arg.format(**paths) for arg in argv]
        assert exit_with_closed(argv, [1]) == (2, "", "-: standard output is closed\n")

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    def test_reader_gone(self, files, buffering):
        # the read end of the pipe is closed before the answer is written
        write, _ = files
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wnfa.cli", "validate", write("c.wnfa", CHAIN3)],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        message = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
        assert (proc.returncode, proc.stderr) == (2, f"-: {message}\n")

    def test_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nope" / "c.wnfa"
        with pytest.raises(SystemExit) as err:
            main(["gen", "chain", "3", "-o", str(out)])
        assert err.value.code == 2
        message = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'"
        assert capsys.readouterr() == ("", f"{out}: {message}\n")

    def test_onto_a_directory(self, files, capsys):
        write, tmp = files
        path = write("c.wnfa", CHAIN3)
        with pytest.raises(SystemExit) as err:
            main(["minimize", path, "-o", str(tmp)])
        assert err.value.code == 2
        message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp}'"
        assert capsys.readouterr() == ("", f"{tmp}: {message}\n")


FULL = "/dev/full"


@pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL} on this platform")
class TestUnwritableDiagnostics:
    """A diagnostic that cannot reach stderr is dropped: stdout and the exit code stay."""

    @pytest.mark.parametrize("stderr", ["closed", "full"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gen", "chain", "3", "-o", "{missing}"], 2),
            (["validate", "{missing}"], 2),
            (["minimize", "{u}"], 1),
            (["equiv", "{u}", "{u}"], 2),
            (["equiv", "{a}", "{u}"], 2),
            (["equiv", "{a}", "{missing}"], 2),
            (["check-relation", "{a}", "{a}", "{r}", "--standard"], 2),
            (["gen", "chain", "2"], 2),
            (["--dev", "oracle", "{c17}"], 2),
            (["gen", "chain", "x"], 2),
        ],
        ids=[
            "write", "load", "minimize", "equiv", "equiv-second-invalid", "equiv-second-missing",
            "check-relation", "gen", "dev-oracle", "usage",
        ],
    )
    def test_exit_code_and_stdout_unchanged(self, files, argv, code, stderr):
        write, tmp = files
        paths = dict(
            missing=str(tmp / "nope" / "x"),
            u=write("u.wnfa", UNREACHABLE),
            a=write("c.wnfa", CHAIN3),
            c17=write("c17.wnfa", serialize_wnfa(gen_chain(17))),
            r=write("r.rel", "relation 2 2\npair 1 1\n"),
        )
        argv = [arg.format(**paths) for arg in argv]
        working = exit_with_closed(argv, [])
        assert working[0] == code and working[1] == "" and working[2]
        if stderr == "closed":
            lost = exit_with_closed(argv, [2])
        else:
            with open(FULL, "w") as full:
                lost = exit_with_closed(argv, [], stderr=full)
        assert lost[:2] == working[:2]

    def test_stdout_closed_and_stderr_full(self):
        with open(FULL, "w") as full:
            assert exit_with_closed(["gen", "chain", "3"], [1], stderr=full) == (2, "", None)


class TestMinimizeWritesBlocks:
    """`minimize` writes each output block by block, in process as beside its child."""

    @pytest.fixture(params=["in-process", "forked"])
    def forks_per_run(self, request, monkeypatch):
        """How many children each run forks on this path, and a list of their pids."""
        forking = request.param == "forked"
        monkeypatch.setattr(forked, "_MIN_CHARS", 0 if forking else 1 << 62)
        usable_cpus(monkeypatch, 2)
        return int(forking), count_forks(monkeypatch, False)

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        """An input whose every output is longer than one block, and those outputs."""
        a = gen_random_wheeler(6000, 2, 3, 19)
        trace = []
        result = quotient(a, boundary_bits(a, trace))
        texts = (
            serialize_wnfa(result.quotient),
            "".join(f"class {p} {c}\n" for p, c in enumerate(result.class_map, 1)),
            format_trace(trace),
            to_dot(result.quotient),
        )
        assert result.quotient.n < a.n
        assert min(text.count("\n") for text in texts) > automaton._BLOCK
        path = tmp_path_factory.mktemp("large") / "a.wnfa"
        path.write_text(serialize_wnfa(a))
        return str(path), texts

    def test_outputs_to_files_and_stdout(self, forks_per_run, large, tmp_path, capsys):
        path, (document, classes, trace, dot) = large
        names = [str(tmp_path / name) for name in MINIMIZE_OUTPUTS]
        argv = ["minimize", path, "-o", names[0], "--class-map", names[1]]
        argv += ["--trace", names[2], "--dot", names[3]]
        assert run_main(argv, capsys) == (0, "", "")
        assert [Path(name).read_text() for name in names] == [document, classes, trace, dot]
        assert run_main(["minimize", path, "-o", "-"], capsys) == (0, document + classes, "")
        per_run, forks = forks_per_run
        assert len(forks) == 2 * per_run
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_output_to_a_full_device(self, forks_per_run, large, tmp_path, capsys):
        path, _ = large
        classes = tmp_path / "m.txt"
        argv = ["minimize", path, "-o", "/dev/full", "--class-map", str(classes)]
        message = f"/dev/full: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert run_main(argv, capsys) == (2, "", message)
        assert not classes.exists()
        per_run, forks = forks_per_run
        assert len(forks) == per_run
        assert_no_child_left()


    def test_a_long_final_line_is_written_block_by_block(self, tmp_path):
        # a unary chain whose 300,000 positions all accept is its own
        # quotient; its final line, built whole, would hold one string per
        # position (19.7 MiB for the 292,847 of the 10^6-edge quotient)
        n = 300_000
        q = WheelerNfa._from_canonical(
            n, OrderedAlphabet(("a",)), list(range(1, n)), list(range(2, n + 1)), [0] * (n - 1),
            tuple(range(1, n + 1)),
        )
        path = tmp_path / "q.wnfa"
        tracemalloc.start()
        try:
            cli._write(str(path), automaton._wnfa_blocks(q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = path.read_text().split("\n")
        assert lines[:2] == ["alphabet a", f"states {n}"]
        assert lines[2] == "final " + " ".join(map(str, range(1, n + 1)))
        assert lines[3:] == [f"edge {u} {u + 1} a" for u in range(1, n)] + [""]
        assert peak < 2**21, peak

    def test_the_trace_is_replayed_as_it_is_written(self, tmp_path, monkeypatch):
        # in process, the trace's records are read off the queue as each
        # block is written; held whole as a list, they would take this
        # input's traced peak to about 1.5 times the untraced one
        monkeypatch.setattr(forked, "_MIN_CHARS", 1 << 62)
        a = gen_random_wheeler(20000, 2, 8, 9)
        path, trace = tmp_path / "a.wnfa", tmp_path / "t.tsv"
        path.write_text(serialize_wnfa(a))
        argv = ["minimize", str(path), "-o", str(tmp_path / "q.wnfa"), "--class-map", os.devnull]
        peaks = []
        for extra in ([], ["--trace", str(trace)]):
            tracemalloc.start()
            try:
                assert main(argv + extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks
        assert trace.read_text() == format_trace(reference_trace(a)[1])


@pytest.mark.usefixtures("collector_back_on")
class TestCollector:
    """`main` runs a command with the cyclic collector off and restores the caller's state."""

    def test_commands_run_with_the_collector_off(self, files, monkeypatch):
        write, _ = files
        seen = []

        def validate_and_record(a):
            seen.append(gc.isenabled())
            return validate(a)

        monkeypatch.setattr(cli, "validate", validate_and_record)
        gc.enable()
        assert main(["validate", write("c.wnfa", CHAIN3)]) == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "path", ["return-0", "return-1", "load-error", "stdout-closed", "usage-error"]
    )
    def test_restored_on_every_exit_path(self, files, capsys, monkeypatch, path, enabled):
        write, _ = files
        argv, code = {
            "return-0": (["gen", "chain", "3"], 0),
            "return-1": (["validate", write("u.wnfa", UNREACHABLE)], 1),
            "load-error": (["validate", write("x.wnfa", "alphabet a\nstates x\n")], None),
            "stdout-closed": (["gen", "chain", "3"], None),
            "usage-error": (["gen", "chain", "x"], None),
        }[path]
        if path == "stdout-closed":
            monkeypatch.setattr("sys.stdout", None)
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        if code is None:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
        # only the program entry freezes, as the process ends
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("via", ["dash-m", "console-script"])
    @pytest.mark.parametrize("path", ["exit-0", "exit-1", "exit-2", "usage-error"])
    def test_the_program_freezes_the_heap_on_exit(self, files, via, path):
        write, tmp = files
        argv, code = {
            "exit-0": (["gen", "chain", "3"], 0),
            "exit-1": (["validate", write("u.wnfa", UNREACHABLE)], 1),
            "exit-2": (["validate", str(tmp / "missing.wnfa")], 2),
            "usage-error": (["gen", "chain", "x"], 2),
        }[path]
        enter = {
            # what `python -m wnfa.cli` runs
            "dash-m": "import runpy\nrunpy.run_module('wnfa.cli', run_name='__main__')\n",
            # what an installed `wnfa` runs: the entry [project.scripts] names
            "console-script": "from wnfa.cli import entry\nsys.exit(entry())\n",
        }[via]
        # exit handlers run after the entry has returned or raised
        code_text = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
            "assert gc.get_freeze_count() == 0\n"
            f"sys.argv[1:] = {argv!r}\n" + enter
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        run = subprocess.run(
            [sys.executable, "-c", code_text], env=env, capture_output=True, text=True
        )
        assert run.returncode == code, run.stderr
        last = run.stderr.splitlines()[-1]
        assert last.startswith("frozen ") and int(last.split()[1]) > 0, run.stderr

    def test_the_console_script_is_the_program_entry(self):
        text = (Path(SRC).parent / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
        assert scripts.splitlines() == ['wnfa = "wnfa.cli:entry"']


SIZES = {"small": 200, "large": 20_000}


@pytest.fixture(scope="module")
def sized_inputs(tmp_path_factory):
    """An automaton, its quotient, an unrelated one and a witness relation, per size."""
    inputs = {}
    for name, n in SIZES.items():
        tmp = tmp_path_factory.mktemp(name)
        a, b = gen_random_wheeler(n, 2, 3, 5), gen_random_wheeler(n, 2, 3, 6)
        q = minimize(a).quotient
        documents = {
            "a.wnfa": serialize_wnfa(a),
            "q.wnfa": serialize_wnfa(q),
            "b.wnfa": serialize_wnfa(b),
            "r.rel": serialize_relation(wheeler_bisimilar(a, q).witness),
        }
        paths = dict(n=str(n), text="abcde" * (n // 5), out=str(tmp / "out"))
        for file, text in documents.items():
            (tmp / file).write_text(text)
            paths[file.split(".")[0]] = str(tmp / file)
        inputs[name] = paths
    return inputs


@pytest.mark.usefixtures("collector_back_on")
class TestCyclicGarbage:
    """What the collector would have found is a constant, not a function of the input."""

    # `--dev oracle` is left out: it enumerates, and refuses inputs above 16 states
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{a}"],
            ["minimize", "{a}", "-o", "{out}.q", "--class-map", "{out}.m", "--trace", "-",
             "--dot", "{out}.d"],
            ["equiv", "{a}", "{q}"],
            ["equiv", "{a}", "{b}"],
            ["equiv", "{a}", "{q}", "--witness", "{out}.w"],
            ["check-relation", "{a}", "{q}", "{r}", "--wheeler"],
            ["check-relation", "{a}", "{q}", "{r}", "--standard"],
            ["gen", "chain", "{n}"],
            ["gen", "distinctness", "{text}"],
            ["gen", "random", "--n", "{n}"],
            ["--dev", "std-bisim", "{a}"],
        ],
        ids=[
            "validate", "minimize", "equiv-yes", "equiv-no", "equiv-witness",
            "check-wheeler", "check-standard", "gen-chain", "gen-distinctness", "gen-random",
            "dev-std-bisim",
        ],
    )
    def test_same_for_both_sizes(self, sized_inputs, capsys, argv):
        found = {}
        for name, paths in sized_inputs.items():
            gc.collect()
            gc.disable()
            main([arg.format(**paths) for arg in argv])
            found[name] = gc.collect()
            gc.enable()
            capsys.readouterr()
        assert found["small"] == found["large"], found


class TestGenCommand:
    def test_chain(self, capsys):
        assert main(["gen", "chain", "3"]) == 0
        assert capsys.readouterr().out == CHAIN3

    def test_chain_too_short(self, capsys):
        assert main(["gen", "chain", "2"]) == 2

    def test_distinctness(self, capsys):
        assert main(["gen", "distinctness", "cbdab"]) == 0
        a = parse_wnfa(capsys.readouterr().out)
        assert a.n == 7 and len(a.edges) == 10

    @pytest.mark.parametrize("option", ["--n", "--epl", "--sigma"])
    def test_random_rejects_values_below_one(self, option, capsys):
        argv = ["gen", "random", "--n", "5", option, "0"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{option} must be >= 1, got 0\n")

    def test_random_beyond_26_symbols(self, capsys):
        # past z the generator names symbols s26, s27, ...
        assert main(["gen", "random", "--n", "200", "--sigma", "30"]) == 0
        out = capsys.readouterr().out
        letters = " ".join("abcdefghijklmnopqrstuvwxyz")
        assert out.splitlines()[0] == f"alphabet {letters} s26 s27 s28 s29"
        a = parse_wnfa(out)
        assert validate(a).ok
        assert parse_wnfa(serialize_wnfa(a)) == a
        assert serialize_wnfa(a) == out

    def test_random_deterministic_per_seed(self, files):
        write, tmp = files
        out1, out2 = tmp / "r1.wnfa", tmp / "r2.wnfa"
        for out in (out1, out2):
            assert (
                main(["gen", "random", "--n", "8", "--seed", "7", "-o", str(out)]) == 0
            )
        assert out1.read_text() == out2.read_text()


class TestDevNamespace:
    def test_oracle(self, files, capsys):
        write, _ = files
        path = write("g.wnfa", serialize_wnfa(gen_distinctness("abb")))
        assert main(["--dev", "oracle", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "bits 1 1 0 1"
        assert "class 4 3" in out

    def test_oracle_whole_output(self, files, capsys):
        write, _ = files
        path = write("g.wnfa", serialize_wnfa(gen_distinctness("abba")))
        assert main(["--dev", "oracle", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "bits 1 1 0 1 1",
            *(f"class {p} {c}" for p, c in enumerate((1, 2, 3, 3, 4, 5), 1)),
        ]

    def test_oracle_cap(self, files, capsys):
        write, _ = files
        path = write("c.wnfa", serialize_wnfa(gen_chain(17)))
        assert main(["--dev", "oracle", path]) == 2
        assert capsys.readouterr() == ("", "oracle input has 17 states, above the cap of 16\n")

    def test_the_cap_is_not_an_option(self, files, capsys):
        write, _ = files
        path = write("c.wnfa", CHAIN3)
        with pytest.raises(SystemExit) as err:
            main(["--dev", "oracle", path, "--cap", "20"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --cap 20" in err_text

    def test_std_bisim(self, files, capsys):
        write, _ = files
        tree = build(
            "abc",
            8,
            [
                (1, 2, "a"),
                (1, 3, "a"),
                (2, 4, "b"),
                (2, 5, "b"),
                (3, 6, "b"),
                (3, 7, "b"),
                (4, 8, "c"),
                (5, 8, "c"),
                (6, 8, "c"),
                (7, 8, "c"),
            ],
            {4, 6, 8},
        )
        path = write("t.wnfa", serialize_wnfa(tree))
        assert main(["--dev", "std-bisim", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"class {p} {c}" for p, c in enumerate((1, 2, 2, 3, 4, 3, 4, 5), 1)
        ]

    def test_std_bisim_classes_need_not_be_intervals(self, files, capsys):
        # 2 and 4, and 3 and 5, are bisimilar but not adjacent; ids go by first use
        write, _ = files
        path = write("g.wnfa", serialize_wnfa(gen_distinctness("abab")))
        assert main(["--dev", "std-bisim", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"class {p} {c}" for p, c in enumerate((1, 2, 3, 2, 3, 4), 1)
        ]


class TestStartup:
    def test_import_loads_no_dataclasses_or_logging(self):
        # a fresh interpreter: diffing sys.modules ignores whatever site imported
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import wnfa.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        added = set(out.split())
        assert "wnfa.cli" in added
        assert not added & {"dataclasses", "inspect", "logging", "wnfa.reference"}
        # only gen_random_wheeler needs random, and no command needs string
        assert not added & {"random", "string"}
        # the commands that need the other modules import them
        assert not added & {"wnfa.relations", "wnfa.equivalence", "wnfa.generators", "wnfa.forked"}

    @pytest.mark.parametrize(
        "args, extra",
        [
            (["validate", "{a}"], set()),
            (["minimize", "{a}", "--trace", "{out}"], {"forked"}),
            (["equiv", "{a}", "{a}"], {"forked", "equivalence"}),
            (["equiv", "{a}", "{a}", "--witness", "{out}"], {"forked", "equivalence", "relations"}),
            (["gen", "chain", "3"], {"generators"}),
            (["gen", "random", "--n", "5"], {"generators"}),
            (["check-relation", "{a}", "{a}", "{rel}", "--wheeler"], {"relations"}),
        ],
        ids=[
            "validate", "minimize", "equiv", "equiv-witness", "gen-chain", "gen-random",
            "check-relation",
        ],
    )
    def test_each_command_loads_only_the_modules_it_runs(self, files, args, extra):
        # beyond the package and the two modules it loads eagerly
        write, tmp = files
        paths = dict(a=write("a.wnfa", CHAIN3), rel=write("r.rel", IDENTITY3), out=str(tmp / "out"))
        argv = [sys.executable, "-X", "importtime", "-m", "wnfa.cli"]
        argv += [arg.format(**paths) for arg in args]
        env = dict(os.environ, PYTHONPATH=SRC)
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in run.stderr.splitlines()
            if line.startswith("import time:")
        }
        package = {name for name in loaded if name.split(".")[0] == "wnfa"}
        eager = {"wnfa", "wnfa.automaton", "wnfa.minimize"}
        assert package == eager | {f"wnfa.{module}" for module in extra}

    @pytest.mark.parametrize("command", ["minimize", "equiv"])
    def test_cli_runs_once_under_dash_m(self, files, command):
        # a command module that imported wnfa.cli would run cli.py a second time
        write, _ = files
        # padded past the real threshold, so that the command forks where
        # two CPUs are usable
        path = write("ok.wnfa", padded(CHAIN3, forked._MIN_CHARS))
        argv = [sys.executable, "-X", "importtime", "-m", "wnfa.cli", command, path]
        if command == "equiv":
            argv.append(path)
        env = dict(os.environ, PYTHONPATH=SRC)
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        imported = [
            line.rsplit("|", 1)[1].strip()
            for line in run.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "wnfa.forked" in imported
        assert "wnfa.cli" not in imported

    def test_import_leaves_the_collector_on(self):
        code = "import gc, wnfa, wnfa.cli\nprint(gc.isenabled())\n"
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "True\n"
