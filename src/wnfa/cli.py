"""Command line front end.

Exit codes are a stable contract: 0 for success or an affirmative answer,
1 for a negative answer or reported violations, 2 for usage or parse
errors (and, for equiv, invalid inputs), and for an input that cannot be
read or an output that cannot be written.  Every answer is written through
:func:`_write`, so an answer that cannot reach standard output, because it
is closed or its reader has gone, exits 2 as well.  :func:`_fail` drops a
diagnostic that cannot reach standard error, without changing the exit
code.  Every path argument accepts ``-`` for the standard streams.

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

from .automaton import ParseError, parse_wnfa, serialize_wnfa, to_dot, validate
from .equivalence import wheeler_bisimilar
from .generators import gen_chain, gen_distinctness, gen_random_wheeler
from .minimize import boundary_bits, format_trace, quotient
from .relations import (
    is_bisimulation,
    is_wheeler_bisimulation,
    parse_relation,
    serialize_relation,
)


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
            # what stdout still buffers would fail again at exit: send it to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(_fail(f"{'-' if path is None else path}: {exc}")) from None


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


def _load(path: str, parse=parse_wnfa):
    """Parse the document at ``path``; any failure to read it exits 2."""
    try:
        return parse(_read(path))
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_fail(f"{path}: {exc}")) from None


def cmd_validate(args) -> int:
    a = _load(args.input)
    report = validate(a)
    _write(None, report.describe(a) + "\n")
    return 0 if report.ok else 1


def cmd_minimize(args) -> int:
    a = _load(args.input)
    report = validate(a)
    if not report.ok:
        return _fail(report.describe(a), 1)
    trace: list | None = [] if args.trace else None
    result = quotient(a, boundary_bits(a, trace))
    _write(args.output, serialize_wnfa(result.quotient))
    _write(args.class_map, _class_lines(result.class_map))
    if args.trace:
        _write(args.trace, format_trace(trace))
    if args.dot:
        _write(args.dot, to_dot(result.quotient))
    return 0


def cmd_equiv(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    for path, x in ((args.a, a), (args.b, b)):
        report = validate(x)
        if not report.ok:
            return _fail(f"{path}:\n{report.describe(x)}")
    verdict = wheeler_bisimilar(a, b)
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
    if argv and argv[0] == "--dev":
        args = _build_dev_parser().parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
