"""Command line front end.

Exit codes are a stable contract: 0 for success or an affirmative answer,
1 for a negative answer or reported violations, 2 for usage or parse
errors (and, for equiv, invalid inputs), and for an input that cannot be
read or an output that cannot be written.  Every answer is written through
:func:`_write`, so an answer that cannot reach standard output, because it
is closed or its reader has gone, exits 2 as well.  :func:`_fail` drops a
diagnostic that cannot reach standard error, without changing the exit
code.  Every path argument accepts ``-`` for the standard streams; an
automaton path named twice is read once.

On inputs of millions of characters, ``minimize`` and ``equiv`` each run
part of their work in one forked child, and report exactly what a
sequential run would.  ``minimize`` parses its input, then validates it in
the child while this process minimizes it; once the child reports the
input valid, it writes its outputs block by block, so no output is ever
held whole.  ``equiv`` prepares its second input in the child while this
process prepares the first, drops the first input's text once it is
parsed, and writes a witness block by block, its pairs read off the two
class maps.  Each reaps its child on every exit path, and does the child's
part itself when fork is missing or fails, when the child sends no
complete result, or when an input is shorter than the command's fork
threshold (see ``_MINIMIZE_FORK_MIN_CHARS``), where a child costs more than
it saves.  ``minimize`` then validates before it minimizes, and an
``equiv`` that forked no child drops the second input's text once it is
parsed, as well.  There is no option for any of this; :mod:`wnfa.forked`
has the details.

At import this module loads only :mod:`wnfa.automaton` and
:mod:`wnfa.minimize`, which importing the package loads anyway.  A command
that needs another module imports it at its top, before it reads any
input: ``minimize`` :mod:`wnfa.forked`, ``equiv`` :mod:`wnfa.forked` and
:mod:`wnfa.equivalence`, and :mod:`wnfa.relations` only to write a
witness, ``check-relation`` :mod:`wnfa.relations`, and ``gen``
:mod:`wnfa.generators`.  So a process compiles only the modules its
command runs, and what compiling took is freed before the input is read.

:func:`main` runs each command with the cyclic garbage collector off, and
restores the caller's setting when the command returns or raises; importing
the package leaves it alone.  Automata, relations and traces are acyclic:
tuples, lists, dicts and records of ints and strings.  The collector finds
nothing among them, yet rescans them whenever enough allocations pile up,
which took 10-13% of each command's time on 2e4-state inputs.  The only
cyclic garbage a command leaves is a constant number of argparse objects,
whatever the input size, which the caller's next collection frees.  The
``wnfa`` program, :func:`entry`, never collects them: once :func:`main` is
done, it freezes every object still alive, so the interpreter's collections
at exit scan nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterator
from itertools import chain

from .automaton import (
    OrderedAlphabet,
    ParseError,
    WheelerNfa,
    _blocks,
    _dot_blocks,
    _wnfa_blocks,
    parse_wnfa,
    validate,
)
from .minimize import (
    QuotientResult,
    _propagate,
    _quotient_by_representatives,
    _replay,
    _trace_blocks,
    minimize,
)

# How far the preparation of one input of ``equiv`` got
_MALFORMED, _INVALID, _MINIMIZED = range(3)

# Each command forks a child only for an input at least this long: below
# it, the fork, the child's exit and the copy-on-write faults the fork
# brings this process cost more than the child saves.  Measured on
# `gen random --epl 2 --sigma 8` files and their quotients, each command a
# fresh process forking always or never (shared 2-core host, CPython 3.11,
# three sweeps of 12-20 alternating pairs; `crossover` in `BENCH_27.json`):
# one process was faster for `equiv A Q` in 29 of 32 pairs at 1.05 M
# characters, in 21 of 40 and 23 of 52 at 1.25 and 1.5 M, and in 3 of 40 at
# 1.79 M; for `minimize`, in 34 of 40 at 1.29 M, in 30 of 52 and 13 of 40
# at 1.54 and 1.84 M, and in 11 of 52 at 2.19 M.  perfbench's inputs, of
# about 560,000 characters, run in one process.
_EQUIV_FORK_MIN_CHARS = 3 << 19  # 1.5 Mi
_MINIMIZE_FORK_MIN_CHARS = 1 << 21  # 2 Mi


def _read(path: str) -> str:
    if path == "-":
        if sys.stdin is None:
            # started with no stdin at all, e.g. under `<&-`
            raise OSError("standard input is closed")
        # the raw bytes, so that stdin decodes as strictly as a file does,
        # and its line ends translated as a file's are
        text = sys.stdin.buffer.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return text
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, blocks) -> None:
    """Write the strings ``blocks`` yields to ``path``, stdout when None or ``-``.

    Each block is built only when the last one is written, so a generator
    such as :func:`_blocks` keeps one block of the text at a time.  Any
    failure exits 2.
    """
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            if sys.stdout is None:
                # started with no stdout at all, e.g. under `>&-`
                raise OSError("standard output is closed")
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(blocks)
    except OSError as exc:
        if to_stdout and sys.stdout is not None:
            _to_devnull(sys.stdout)
        raise SystemExit(_fail(f"{'-' if path is None else path}: {exc}")) from None


def _to_devnull(stream) -> None:
    """Point ``stream``'s descriptor at devnull.

    What a failed write left in the stream's buffer would fail again at exit,
    and the interpreter would then exit 120 whatever the command returned.
    """
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _fail(message: str, code: int = 2) -> int:
    """Write ``message`` to stderr and return ``code``; a failing stderr drops it."""
    try:
        sys.stderr.write(message + "\n")
    except OSError:
        pass
    return code


def _class_blocks(class_map) -> Iterator[str]:
    """One ``class <in> <out>`` line per input position, numbered from 1, block by block."""
    return _blocks(f"class {p} {c}\n" for p, c in enumerate(class_map, 1))


def _text(path: str) -> str:
    """The text at ``path``; a failure to read it exits 2."""
    try:
        return _read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_fail(f"{path}: {exc}")) from None


def _parse(path: str, text: str, parse):
    """``parse(text)``; a malformed ``text`` exits 2 with ``path`` in the message."""
    try:
        return parse(text)
    except ParseError as exc:
        raise SystemExit(_fail(f"{path}: {exc}")) from None


def _load(path: str, parse=parse_wnfa):
    """Parse the document at ``path``; any failure to read or parse it exits 2."""
    return _parse(path, _text(path), parse)


def cmd_validate(args) -> int:
    a = _load(args.input)
    report = validate(a)
    _write(None, [report.describe(a) + "\n"])
    return 0 if report.ok else 1


def cmd_minimize(args) -> int:
    from .forked import beside

    text = _text(args.input)
    a, chars = _parse(args.input, text, parse_wnfa), len(text)
    del text  # held on, it would add its size to the peak memory

    def violations():
        report = validate(a)
        return None if report.ok else report.describe(a)

    def minimized():
        """The quotient and the run if traced: meaningless for an invalid input, raising nothing."""
        bits, run = _propagate(a)
        if not args.trace:
            run = None  # held on while the quotient is built, it would raise the peak
        return _quotient_by_representatives(a, bits), run

    fork = chars >= _MINIMIZE_FORK_MIN_CHARS
    report, done = beside(violations, minimized, fork, check_first=True)
    if report is not None:
        return _fail(report, 1)
    result, run = done
    # each output is built block by block as it is written
    _write(args.output, _wnfa_blocks(result.quotient))
    _write(args.class_map, _class_blocks(result.class_map))
    if args.trace:
        _write(args.trace, _trace_blocks(_replay(*run)))
    if args.dot:
        _write(args.dot, _dot_blocks(result.quotient))
    return 0


def _prepare(path: str, a: WheelerNfa) -> tuple:
    """Validate and minimize one parsed input of ``equiv``, up to its first failure.

    Returns ``(_INVALID, message)`` or ``(_MINIMIZED, (n, symbols, sources,
    targets, labels, accepting, class_map))``: the quotient's fields, its
    three edge columns among them, and the class map, as data ``marshal``
    can send.  It writes nothing, so a child can run it.
    """
    report = validate(a)
    if not report.ok:
        return _INVALID, f"{path}:\n{report.describe(a)}"
    result = minimize(a)
    q = result.quotient
    return _MINIMIZED, (
        q.n, q.alphabet.symbols, q.sources, q.targets, q.labels, q.accepting, result.class_map
    )


def _minimized(value: tuple) -> QuotientResult:
    """The :class:`QuotientResult` that :func:`_prepare` sent as ``value``."""
    n, symbols, sources, targets, labels, accepting, class_map = value
    q = WheelerNfa._from_canonical(n, OrderedAlphabet(symbols), sources, targets, labels, accepting)
    return QuotientResult(q, class_map)


def cmd_equiv(args) -> int:
    from .equivalence import compare_minimized
    from .forked import beside

    text_a = _text(args.a)
    try:
        # a path named twice is read once: a second read of `-` would be empty
        text_b = text_a if args.b == args.a else _read(args.b)
    except (OSError, UnicodeDecodeError) as exc:
        _parse(args.a, text_a, parse_wnfa)  # A's parse error is reported ahead of B's read error
        raise SystemExit(_fail(f"{args.b}: {exc}")) from None

    def prepare_a():
        nonlocal text_a
        a = _parse(args.a, text_a, parse_wnfa)
        text_a = None  # held on, it would add its size to the peak memory
        return _prepare(args.a, a)

    def prepare_b():
        nonlocal text_b
        try:
            b = parse_wnfa(text_b)
        except ParseError as exc:
            return _MALFORMED, f"{args.b}: {exc}"
        if not fork:
            text_b = None  # as A's; a forked parent keeps it for its fallback
        return _prepare(args.b, b)

    fork = min(len(text_a), len(text_b)) >= _EQUIV_FORK_MIN_CHARS
    side_b, side_a = beside(prepare_b, prepare_a, fork)
    if side_b[0] == _MALFORMED:
        raise SystemExit(_fail(side_b[1]))
    for kind, value in (side_a, side_b):
        if kind == _INVALID:
            return _fail(value)
    verdict = compare_minimized(_minimized(side_a[1]), _minimized(side_b[1]))
    _write(None, [verdict.reason + "\n"])
    if verdict.bisimilar:
        if args.witness:
            from .relations import _class_pairs, _relation_blocks

            # the witness's pairs, read off the class maps as they are written
            m1, m2 = (r.class_map for r in verdict.results)
            _write(args.witness, _relation_blocks(len(m1), len(m2), _class_pairs(m1, m2)))
        return 0
    return 1


def cmd_check_relation(args) -> int:
    from .relations import is_bisimulation, is_wheeler_bisimulation, parse_relation

    a = _load(args.a)
    b = a if args.b == args.a else _load(args.b)
    rel = _load(args.relation, parse_relation)
    check = is_wheeler_bisimulation if args.wheeler else is_bisimulation
    try:
        failure = check(a, b, rel)
    except ValueError as exc:
        return _fail(f"{args.relation}: {exc}")
    _write(None, ["ok\n" if failure is None else failure.describe() + "\n"])
    return 0 if failure is None else 1


def cmd_gen(args) -> int:
    from .generators import gen_chain, gen_distinctness, gen_random_wheeler

    try:
        if args.family == "chain":
            a = gen_chain(args.k)
        elif args.family == "distinctness":
            a = gen_distinctness(args.text)
        else:
            for flag, value in (("--n", args.n), ("--epl", args.epl), ("--sigma", args.sigma)):
                if value < 1:
                    raise ValueError(f"{flag} must be >= 1, got {value}")
            a = gen_random_wheeler(
                args.n, args.epl, args.sigma, args.seed, deterministic=args.deterministic
            )
    except ValueError as exc:
        return _fail(str(exc))
    _write(args.output, _wnfa_blocks(a))
    return 0


def cmd_dev_oracle(args) -> int:
    from .reference import oracle_max_wheeler_autobisimulation

    a = _load(args.input)
    try:
        bits = oracle_max_wheeler_autobisimulation(a, cap=args.cap)
    except ValueError as exc:
        return _fail(str(exc))
    flags = " ".join("1" if b else "0" for b in bits.bits)
    _write(None, chain([f"bits {flags}\n"], _class_blocks(bits.class_map)))
    return 0


def cmd_dev_std_bisim(args) -> int:
    from .reference import max_standard_autobisimulation

    a = _load(args.input)
    _write(None, _class_blocks(max_standard_autobisimulation(a)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnfa",
        description="Wheeler NFA toolkit: validate, minimize, compare, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Wheeler axioms and reachability")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("minimize", help="write the minimal Wheeler-bisimilar automaton")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="quotient .wnfa (default stdout)")
    p.add_argument("--class-map", default=None, help="write 'class <in> <out>' lines here")
    p.add_argument("--trace", default=None, help="write the queue-stage trace here")
    p.add_argument("--dot", default=None, help="write a Graphviz rendering of the quotient")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("equiv", help="decide Wheeler-bisimilarity of two automata")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--witness", default=None, help="write a witness relation when bisimilar")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("check-relation", help="test a relation against two automata")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("relation")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--wheeler", action="store_true", help="full order-respecting check")
    mode.add_argument("--standard", action="store_true", help="plain bisimulation check")
    p.set_defaults(func=cmd_check_relation)

    p = sub.add_parser("gen", help="generate an automaton family member")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("chain", help="unary chain with a loop at the start")
    g.add_argument("k", type=int)
    g.add_argument("-o", "--output", default=None)
    g = gen_sub.add_parser("distinctness", help="fan gadget encoding a symbol sequence")
    g.add_argument("text")
    g.add_argument("-o", "--output", default=None)
    g = gen_sub.add_parser("random", help="seeded random Wheeler NFA")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--epl", type=int, default=2, help="edges per label and target")
    g.add_argument("--sigma", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--deterministic", action="store_true")
    g.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def _build_dev_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wnfa --dev", description="development references")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="brute-force maximum order-respecting autobisimulation")
    p.add_argument("input")
    p.add_argument("--cap", type=int, default=16, help="state-count cap for the enumeration")
    p.set_defaults(func=cmd_dev_oracle)

    p = sub.add_parser("std-bisim", help="naive coarsest standard-bisimulation partition")
    p.add_argument("input")
    p.set_defaults(func=cmd_dev_std_bisim)
    return parser


def main(argv=None) -> int:
    if sys.stderr is None:
        # started with no stderr, e.g. under `2>&-`; argparse would print usage to stdout
        sys.stderr = open(os.devnull, "w")
    argv = list(sys.argv[1:] if argv is None else argv)
    collecting = gc.isenabled()
    try:
        if argv and argv[0] == "--dev":
            args = _build_dev_parser().parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
        gc.disable()
        return args.func(args)
    finally:
        if collecting:
            gc.enable()
        # a diagnostic stderr could not take, from _fail or from argparse's
        # usage errors, is still in its buffer
        try:
            sys.stderr.flush()
        except OSError:
            _to_devnull(sys.stderr)


def entry() -> None:
    """The ``wnfa`` program: :func:`main` on ``sys.argv``, exiting with its code.

    On every way out, ``SystemExit`` included, it moves every object still
    alive to the collector's permanent generation (``gc.freeze()``), so the
    collections the interpreter runs at exit scan none of them: the process
    is ending, and what is not freed by reference counts goes with it.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
