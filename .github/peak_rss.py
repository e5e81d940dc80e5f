"""Run a command; fail unless it exits 0 below a peak RSS bound.

    python3 peak_rss.py BOUND_MB COMMAND [ARG ...]

The command runs as a child of this script, with its standard streams,
and is waited for with ``os.wait4``.  Its peak RSS is the ``ru_maxrss``
that ``wait4`` reports: the larger of the command's own peak and that of
any child it reaped, such as the one ``minimize`` or ``equiv`` forks.  The
exit code and the peak go to stderr; this script exits 1 unless the
command exited 0 and peaked below BOUND_MB megabytes (MiB, as Linux
counts ``ru_maxrss`` in KiB).
"""

import os
import sys


def main(argv: list[str]) -> int:
    bound_mb, command = float(argv[0]), argv[1:]
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    code, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{' '.join(command)}: exit {code}, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
    return 0 if code == 0 and peak_mb < bound_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
