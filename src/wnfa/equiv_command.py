"""The ``wnfa equiv`` command: its two inputs prepared at once.

Until the final comparison the two sides of ``equiv`` share nothing, so
after reading both inputs the command forks one child that parses,
validates and minimizes the second while this process does the first.  The
child writes only to a pipe, never to stdout or stderr: the marshalled
quotient and class map, or the diagnostic that stopped it.  The parent
reports in the order a sequential run would: each side's read or parse
error, then each side's validation report, then the verdict.  On every exit
path, an interrupt or an error in its own side included, the parent kills
the child if it is still running and reaps it.

The parent prepares the second input itself, with the same function, when
fork is missing or fails, when the child sends no complete result, and when
either input is shorter than :data:`_FORK_MIN_CHARS`: the fork, and the
copy-on-write faults it brings the parent, cost more than a small side
takes.  There is no option for any of this.

Only ``equiv`` imports this module, so the other commands never compile it.
"""

from __future__ import annotations

import marshal
import os

from .automaton import OrderedAlphabet, ParseError, WheelerNfa, parse_wnfa, validate
from .cli import _fail, _parse, _read, _text, _write
from .equivalence import compare_minimized
from .minimize import QuotientResult, minimize
from .relations import serialize_relation

# How far :func:`_prepare` got with one input
_MALFORMED, _INVALID, _MINIMIZED = range(3)
# Fork only when both texts are at least this long.  On a 2-core host under
# CPython 3.11, against first inputs of 393,000 to 559,000 characters, a
# child cost 16 ms for a 481-character second input, saved nothing for
# 23,000 characters, and saved 11 ms for 63,000 and 17 ms for 90,600
# (medians of 40 runs each).
_FORK_MIN_CHARS = 1 << 15
# POSIX fixes its number; the signal module would be one more import
_SIGKILL = 9


def _prepare(path: str, text: str) -> tuple:
    """Parse, validate and minimize one input, up to its first failure.

    Returns ``(_MALFORMED, message)``, ``(_INVALID, message)`` or
    ``(_MINIMIZED, QuotientResult)``.  It writes nothing, so a child can run it.
    """
    try:
        a = parse_wnfa(text)
    except ParseError as exc:
        return _MALFORMED, f"{path}: {exc}"
    report = validate(a)
    if not report.ok:
        return _INVALID, f"{path}:\n{report.describe(a)}"
    return _MINIMIZED, minimize(a)


def _fork_prepare(path: str, text: str) -> tuple[int, int] | None:
    """Run :func:`_prepare` in a forked child: its pid and the read end of its pipe.

    The child writes the marshalled outcome to the pipe and nothing anywhere
    else, then leaves through ``os._exit``, so it flushes no stream and runs
    no exit handler.  Returns None when fork is missing or fails.
    """
    if not hasattr(os, "fork"):
        return None
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            kind, value = _prepare(path, text)
            if kind == _MINIMIZED:
                q = value.quotient
                value = (q.n, q.alphabet.symbols, q.edges, q.finals, value.class_map)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps((kind, value)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _receive(read_end: int) -> tuple | None:
    """The outcome a child sent down ``read_end``, or None if it sent no complete one."""
    with open(read_end, "rb", closefd=False) as pipe:
        data = pipe.read()
    try:
        kind, value = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return None
    if kind == _MINIMIZED:
        n, symbols, edges, finals, class_map = value
        q = WheelerNfa._from_canonical(n, OrderedAlphabet(symbols), edges, finals)
        value = QuotientResult(q, class_map)
    return kind, value


def cmd_equiv(args) -> int:
    text_a = _text(args.a)
    try:
        text_b = _read(args.b)
    except (OSError, UnicodeDecodeError) as exc:
        _parse(args.a, text_a)  # A's parse error is reported ahead of B's read error
        raise SystemExit(_fail(f"{args.b}: {exc}")) from None
    child = None
    if min(len(text_a), len(text_b)) >= _FORK_MIN_CHARS:
        child = _fork_prepare(args.b, text_b)
    side_b = None
    try:
        side_a = _prepare(args.a, text_a)
        if side_a[0] == _MALFORMED:
            raise SystemExit(_fail(side_a[1]))
        if child is not None:
            side_b = _receive(child[1])
    finally:
        if child is not None:
            pid, read_end = child
            os.close(read_end)
            os.kill(pid, _SIGKILL)  # a no-op once the child has exited
            os.waitpid(pid, 0)
    if side_b is None:
        side_b = _prepare(args.b, text_b)
    if side_b[0] == _MALFORMED:
        raise SystemExit(_fail(side_b[1]))
    for kind, value in (side_a, side_b):
        if kind == _INVALID:
            return _fail(value)
    verdict = compare_minimized(side_a[1], side_b[1])
    _write(None, verdict.reason + "\n")
    if verdict.bisimilar:
        if args.witness:
            _write(args.witness, serialize_relation(verdict.witness))
        return 0
    return 1
