"""One piece of a command's work run in a forked child, beside the rest.

``minimize`` validates its input in a child while this process minimizes
it; ``equiv`` prepares its second input in a child while this process
prepares the first.  :func:`beside` is the fork rule, the fork, the pipe,
the kill, the reap and the in-process fallback that both share.

A child is forked only for an input of ``_MIN_CHARS`` characters or more,
and only where this process may run on two CPUs.  Below the threshold the
fork costs more than the child saves (`crossover` in `BENCH_27.json`); on
one CPU the two processes take turns, and at 10^6 edges the fork made
`minimize` and `equiv A Q` slower (`BENCH_31.json`).  The CPUs are those
of the affinity mask, or the machine's where there is none; a cgroup CPU
quota, as `docker --cpus=1` sets, shows in neither and is not read.

The child writes only to its pipe, never to stdout or stderr: the
``marshal``-ed value its function returned.  It leaves through
``os._exit``, so it flushes no stream and runs no exit handler.  On every
exit path, an interrupt or an error in this process's own work included,
this process kills the child if it is still running and reaps it.  There is
no option for any of this.

This module imports nothing from the package.  Only the commands that use
it import it, so the others never compile it, and under
``python -m wnfa.cli`` it does not load ``wnfa.cli`` a second time.
"""

from __future__ import annotations

import marshal
import os

# POSIX fixes its number; the signal module would be one more import
_SIGKILL = 9

_MIN_CHARS = 3 << 19  # 1.5 Mi: the shortest input a child is forked for


def beside(child_work, own_work, chars: int, check_first: bool = False) -> tuple:
    """``(child_work(), own_work())``, the first from a forked child.

    A child is forked only when the input's length ``chars`` reaches
    ``_MIN_CHARS`` and, counted only then, two CPUs are usable.
    ``child_work`` must write nothing and return a value ``marshal`` can
    send.  When no child is forked, or fork is missing or fails, both run
    here: ``own_work`` first, or, with ``check_first``, ``child_work`` first
    and ``own_work`` only if that returned None (its value is then None
    too).  When the child sends no complete result, ``child_work`` runs here
    after ``own_work``.  Once a child is forked, ``child_work`` never runs
    here if ``own_work`` raises.
    """
    child = _fork(child_work) if chars >= _MIN_CHARS and _cpus() > 1 else None
    if child is None and check_first:
        checked = child_work()
        return checked, (own_work() if checked is None else None)
    received = None
    try:
        own = own_work()
        if child is not None:
            received = _receive(child[1])
    finally:
        if child is not None:
            pid, read_end = child
            os.close(read_end)
            os.kill(pid, _SIGKILL)  # a no-op once the child has exited
            os.waitpid(pid, 0)
    return (child_work() if received is None else received[0]), own


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(work) -> tuple[int, int] | None:
    """Run ``work`` in a forked child: its pid and the read end of its pipe.

    Returns None when fork is missing or fails.
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
            data = marshal.dumps(work())
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _receive(read_end: int) -> tuple | None:
    """``(value,)`` for the value a child sent down ``read_end``; None if it sent none complete."""
    with open(read_end, "rb", closefd=False) as pipe:
        data = pipe.read()
    try:
        return (marshal.loads(data),)
    except (EOFError, ValueError, TypeError):
        return None
