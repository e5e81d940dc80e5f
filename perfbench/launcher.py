"""Runs benchmark commands one at a time and reports each child's own usage.

The harness starts this small process before it builds any workload.  Every
child is forked from here, so the peak RSS read for it covers the child and
this process's few MB, never the harness's large automata: on Linux a child's
ru_maxrss also counts the memory of the process it was forked from.

Protocol: one JSON request per stdin line,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``; one JSON
reply per stdout line, ``{"code": int, "wall_s": float, "maxrss_kb": int}``.
The wall time spans fork to reaping, and the rusage comes from ``os.wait4`` on
that child alone.  The process exits when stdin closes.
"""

import json
import os
import sys
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                null = os.open(os.devnull, os.O_RDONLY)
                os.dup2(null, 0)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.execve(req["argv"][0], req["argv"], req["env"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
