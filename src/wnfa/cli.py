"""Command line front end.

Exit codes are a stable contract: 0 for success or an affirmative answer,
1 for a negative answer or reported violations, 2 for usage or parse
errors (and, for equiv, invalid inputs), and for an input that cannot be
read or an output that cannot be written.  Every answer is written through
:func:`_write`, so an answer that cannot reach standard output, because it
is closed or its reader has gone, exits 2 as well.  :func:`_fail` drops a
diagnostic that cannot reach standard error, without changing the exit
code.  Every path argument accepts ``-`` for the standard streams.

``minimize`` and ``equiv`` each run part of their work in one forked
child, and report exactly what a sequential run would.  ``minimize``
parses its input, then validates it in the child while this process
minimizes it; it builds and writes each output text only once the child
reports the input valid.  ``equiv`` prepares its second input in the child
while this process prepares the first.  Each reaps its child on every exit
path, and does the child's part itself when fork is missing or fails, when
the child sends no complete result, or when an input is too small to gain
from a child; ``minimize`` then validates before it minimizes.  There is no
option for any of this; :mod:`wnfa.forked` has the details.

:func:`main` runs each command with the cyclic garbage collector off, and
restores the caller's setting when the command returns or raises; importing
the package leaves it alone.  Automata, relations and traces are acyclic:
tuples, lists, dicts and records of ints and strings.  The collector finds
nothing among them, yet rescans them whenever enough allocations pile up,
which took 10-13% of each command's time on 2e4-state inputs.  The only
cyclic garbage a command leaves is a constant number of argparse objects,
whatever the input size; the caller's next collection, or the
interpreter's exit, frees them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .automaton import (
    OrderedAlphabet,
    ParseError,
    WheelerNfa,
    parse_wnfa,
    serialize_wnfa,
    to_dot,
    validate,
)
from .equivalence import compare_minimized
from .generators import gen_chain, gen_distinctness, gen_random_wheeler
from .minimize import QuotientResult, boundary_bits, format_trace, minimize, quotient
from .relations import is_bisimulation, is_wheeler_bisimulation, parse_relation, serialize_relation

# How far :func:`_prepare` got with one input of ``equiv``
_MALFORMED, _INVALID, _MINIMIZED = range(3)

# Each command forks a child only for an input at least this long: below
# it, the fork, the child's exit and the copy-on-write faults the fork
# brings this process cost more than the child saves (2-core host, CPython
# 3.11, medians of 40 runs; `fork_threshold` in `BENCH_14.json` for `equiv`
# and in `BENCH_15.json` for `minimize`).  An `equiv` child
# parses, validates and minimizes the second input: beside first inputs of
# 393,000 to 559,000 characters it cost 16 ms for a 481-character second
# input, saved nothing for 23,000 characters, and saved 11 ms for 63,000.
# A `minimize` child only validates: it cost 2 ms from 7,700 to 33,800
# characters (faster in at most 9 of 40 pairs), was even at 64,800, and
# saved 5 ms at 102,000 and 6 ms at 260,000 (faster in 31 of 40).
_EQUIV_FORK_MIN_CHARS = 1 << 15
_MINIMIZE_FORK_MIN_CHARS = 1 << 16


def _read(path: str) -> str:
    if path == "-":
        if sys.stdin is None:
            # started with no stdin at all, e.g. under `<&-`
            raise OSError("standard input is closed")
        # the raw bytes, so that stdin decodes as strictly as a file does
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, stdout when None or ``-``; any failure exits 2."""
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            if sys.stdout is None:
                # started with no stdout at all, e.g. under `>&-`
                raise OSError("standard output is closed")
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
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


def _class_lines(class_map) -> str:
    """One ``class <in> <out>`` line per input position, numbered from 1."""
    return "".join(f"class {p} {c}\n" for p, c in enumerate(class_map, 1))


def _text(path: str) -> str:
    """The text at ``path``; a failure to read it exits 2."""
    try:
        return _read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_fail(f"{path}: {exc}")) from None


def _parse(path: str, text: str, parse=parse_wnfa):
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
    _write(None, report.describe(a) + "\n")
    return 0 if report.ok else 1


def cmd_minimize(args) -> int:
    # imported here, so that only minimize and equiv compile the fork code
    from .forked import beside

    text = _text(args.input)
    a, chars = _parse(args.input, text), len(text)
    del text  # held on, it would add its size to the peak memory

    def violations():
        report = validate(a)
        return None if report.ok else report.describe(a)

    def minimized():
        """The quotient, the trace and the texts every run writes, or the
        ValueError of an invalid input."""
        trace: list | None = [] if args.trace else None
        try:
            result = quotient(a, boundary_bits(a, trace))
        except ValueError as exc:
            return exc
        return result, trace, serialize_wnfa(result.quotient), _class_lines(result.class_map)

    fork = chars >= _MINIMIZE_FORK_MIN_CHARS
    report, done = beside(violations, minimized, fork, check_first=True)
    if report is not None:
        return _fail(report, 1)
    if isinstance(done, ValueError):
        raise done  # a valid input: the fault is the program's
    result, trace, document, classes = done
    del done
    _write(args.output, document)
    _write(args.class_map, classes)
    # the optional texts are built only once those two are freed
    del document, classes
    if args.trace:
        _write(args.trace, format_trace(trace))
    if args.dot:
        _write(args.dot, to_dot(result.quotient))
    return 0


def _prepare(path: str, text: str) -> tuple:
    """Parse, validate and minimize one input of ``equiv``, up to its first failure.

    Returns ``(_MALFORMED, message)``, ``(_INVALID, message)`` or
    ``(_MINIMIZED, (n, symbols, edges, finals, class_map))``, the quotient
    and class map as data ``marshal`` can send.  It writes nothing, so a
    child can run it.
    """
    try:
        a = parse_wnfa(text)
    except ParseError as exc:
        return _MALFORMED, f"{path}: {exc}"
    report = validate(a)
    if not report.ok:
        return _INVALID, f"{path}:\n{report.describe(a)}"
    result = minimize(a)
    q = result.quotient
    return _MINIMIZED, (q.n, q.alphabet.symbols, q.edges, q.finals, result.class_map)


def _minimized(value: tuple) -> QuotientResult:
    """The :class:`QuotientResult` that :func:`_prepare` sent as ``value``."""
    n, symbols, edges, finals, class_map = value
    q = WheelerNfa._from_canonical(n, OrderedAlphabet(symbols), edges, finals)
    return QuotientResult(q, class_map)


def cmd_equiv(args) -> int:
    from .forked import beside

    text_a = _text(args.a)
    try:
        text_b = _read(args.b)
    except (OSError, UnicodeDecodeError) as exc:
        _parse(args.a, text_a)  # A's parse error is reported ahead of B's read error
        raise SystemExit(_fail(f"{args.b}: {exc}")) from None

    def prepare_a():
        side = _prepare(args.a, text_a)
        if side[0] == _MALFORMED:
            raise SystemExit(_fail(side[1]))
        return side

    def prepare_b():
        return _prepare(args.b, text_b)

    fork = min(len(text_a), len(text_b)) >= _EQUIV_FORK_MIN_CHARS
    side_b, side_a = beside(prepare_b, prepare_a, fork)
    if side_b[0] == _MALFORMED:
        raise SystemExit(_fail(side_b[1]))
    for kind, value in (side_a, side_b):
        if kind == _INVALID:
            return _fail(value)
    verdict = compare_minimized(_minimized(side_a[1]), _minimized(side_b[1]))
    _write(None, verdict.reason + "\n")
    if verdict.bisimilar:
        if args.witness:
            _write(args.witness, serialize_relation(verdict.witness))
        return 0
    return 1


def cmd_check_relation(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    rel = _load(args.relation, parse_relation)
    check = is_wheeler_bisimulation if args.wheeler else is_bisimulation
    try:
        failure = check(a, b, rel)
    except ValueError as exc:
        return _fail(f"{args.relation}: {exc}")
    _write(None, "ok\n" if failure is None else failure.describe() + "\n")
    return 0 if failure is None else 1


def cmd_gen(args) -> int:
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
    _write(args.output, serialize_wnfa(a))
    return 0


def cmd_dev_oracle(args) -> int:
    from .reference import oracle_max_wheeler_autobisimulation

    a = _load(args.input)
    try:
        bits = oracle_max_wheeler_autobisimulation(a, cap=args.cap)
    except ValueError as exc:
        return _fail(str(exc))
    flags = " ".join("1" if b else "0" for b in bits.bits)
    _write(None, f"bits {flags}\n" + _class_lines(bits.class_map))
    return 0


def cmd_dev_std_bisim(args) -> int:
    from .reference import max_standard_autobisimulation

    a = _load(args.input)
    part = max_standard_autobisimulation(a)
    _write(None, _class_lines(c + 1 for c in part.class_of))
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


if __name__ == "__main__":
    sys.exit(main())
