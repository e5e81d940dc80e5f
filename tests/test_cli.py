import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wnfa import (
    gen_chain,
    gen_distinctness,
    minimize,
    parse_wnfa,
    serialize_relation,
    serialize_wnfa,
)
from wnfa.cli import main

from conftest import build, unorderable_three_state


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return str(p)

    return write, tmp_path


CHAIN3 = "alphabet a\nstates 3\nfinal 1 3\nedge 1 1 a\nedge 1 2 a\nedge 2 3 a\n"
IDENTITY3 = "relation 3 3\npair 1 1\npair 2 2\npair 3 3\n"
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
        assert capsys.readouterr().err.startswith("-: 'utf-8' codec can't decode byte 0xff")

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
        assert "can't decode byte 0xff" in text

    def test_relation_not_utf8(self, files, capsys):
        write, tmp = files
        a = write("c.wnfa", CHAIN3)
        r = tmp / "r.rel"
        r.write_bytes(b"relation 3 3\npair 1 1\xff\n")
        text = self.exit_two(["check-relation", a, a, str(r), "--standard"], capsys, r)
        assert "can't decode byte 0xff" in text


def exit_with_stdout_closed(argv):
    """Run the CLI with stdout closed; a process started so sees sys.stdout as None."""
    launch = (
        "import os, sys\n"
        "os.close(1)\n"
        f"os.execv(sys.executable, [sys.executable, '-m', 'wnfa.cli', *{argv!r}])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launch],
        env=dict(os.environ, PYTHONPATH=SRC),
        stderr=subprocess.PIPE,
        text=True,
    )
    return proc.returncode, proc.stderr


class TestUnwritableOutput:
    def test_stdout_closed(self):
        assert exit_with_stdout_closed(["gen", "chain", "3"]) == (
            2, "-: standard output is closed\n"
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
        assert exit_with_stdout_closed(argv) == (2, "-: standard output is closed\n")

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

    def test_oracle_cap(self, files, capsys):
        write, _ = files
        path = write("c.wnfa", serialize_wnfa(gen_chain(17)))
        assert main(["--dev", "oracle", path]) == 2
        assert main(["--dev", "oracle", path, "--cap", "20"]) == 0

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
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "class 2 2" and lines[2] == "class 3 2"
        assert lines[3] == "class 4 3" and lines[5] == "class 6 3"


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
