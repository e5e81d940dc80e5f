"""Benchmark of the ``wnfa`` command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``src/`` and
nothing needs building.  The harness generates the workload from the seed,
writes its files under ``.perfbench_work/`` and computes the known answers
(``setup_s``).  With ``--trace 0`` it then runs ``wnfa validate``,
``minimize``, ``equiv`` on a bisimilar pair and ``equiv`` on a non-bisimilar
pair as child processes, one at a time, in rounds, until ``--seconds`` have
passed, checking every output.  With ``--trace 1`` it calls each layer's
public functions in-process under spans instead (see ``layers.py``) and
writes the spans to ``.perfbench_out/``.  Timings are medians over the run's
rounds; end-to-end timings are scaled to a reference host speed (see
``REFERENCE_S``).  The last line of stdout is one JSON object with the verdict and the
metrics; ``README.md`` describes every metric.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
SMALL_SCALE = 0.1
# A `wnfa --help` child may read at most this much more peak RSS than a bare
# interpreter child; more means the harness's memory leaks into the reading.
HELP_RSS_SLACK_MB = 8.0

# Contention on a shared host drifts over tens of seconds; on a two-core VM it
# moved unscaled run medians by up to 20%.  A fixed mix of interpreter work (arithmetic,
# allocation and sorting, text splitting) is timed between timed steps, and
# end-to-end timings are reported as wall time * REFERENCE_S / (mean of the
# reference times just before and after): seconds on a host where the mix
# takes REFERENCE_S, about its typical time on a 2.1 GHz Xeon core.
REFERENCE_S = 0.1

CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def wnfa_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "wnfa.cli", *args]


def reference_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    items = sorted((i * 7919 % 100_003, i) for i in range(60_000))
    acc += len(dict(items))
    lines = "\n".join(f"edge {i} {i * 3 % 1000} a" for i in range(25_000))
    for line in lines.splitlines():
        _, u, v, _ = line.split()
        acc += int(u) + int(v)
    return time.perf_counter() - start


class HostSpeed:
    """Rescales wall times to the reference host speed (see REFERENCE_S)."""

    def __init__(self):
        self.mark()

    def mark(self) -> None:
        """Time the reference just before a timed step."""
        self.last = reference_seconds()

    def scale(self, wall: float) -> float:
        """``wall`` for a step that ended just now, at the reference speed."""
        after = reference_seconds()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return wall * factor


class Launcher:
    """Client of ``launcher.py``, the small process every child is forked from."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> dict:
        """Run ``argv`` to completion; adds its ``stdout`` text to the reply."""
        out, err = self.work / "child.out", self.work / "child.err"
        request = {"argv": argv, "env": CHILD_ENV, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        result = json.loads(reply)
        result["stdout"] = out.read_text()
        result["maxrss_mb"] = result["maxrss_kb"] / 1024
        return result

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Commands attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            if len(self.failures) <= 5:
                print(f"FAIL {what}: {problem}", file=sys.stderr)


def expect_exit(result: dict, code: int, outputs: tuple[str, ...]) -> str | None:
    if result["code"] != code:
        return f"exit code {result['code']}, expected {code}"
    if result["stdout"] not in outputs:
        return f"printed {result['stdout'][:80]!r}"
    return None


def setup(workloads, name: str, seed: int, work: Path):
    """Generate the workload, write its files and compute its known answers."""
    w = workloads.build(name, seed)
    files = {"A": work / "A.wnfa", "B": work / "B.wnfa", "Bneg": work / "Bneg.wnfa"}
    for key, x in (("A", w.a), ("B", w.b), ("Bneg", w.b_neg)):
        files[key].write_text(workloads.serialize_wnfa(x))
    return w, files


def minimize_checker(workloads, w):
    """``check_minimize_output`` for ``w``, run in full once per distinct output."""
    return functools.lru_cache(maxsize=None)(functools.partial(workloads.check_minimize_output, w))


def rss_check(launcher: Launcher, tally: Tally) -> None:
    bare = launcher.run([sys.executable, "-c", "pass"])["maxrss_mb"]
    helped = launcher.run(wnfa_argv("--help"))
    tally.check("wnfa --help", expect_exit(helped, 0, (helped["stdout"],)))
    excess = helped["maxrss_mb"] - bare
    print(f"peak RSS: bare interpreter {bare:.1f} MB, wnfa --help {helped['maxrss_mb']:.1f} MB",
          file=sys.stderr)
    problem = None
    if excess > HELP_RSS_SLACK_MB:
        problem = f"peak RSS {helped['maxrss_mb']:.1f} MB vs bare {bare:.1f} MB"
    tally.check("per-child RSS", problem)


def run_cli(args, workloads, launcher: Launcher, work: Path, tally: Tally) -> dict:
    speed = HostSpeed()
    raw: dict[str, list[float]] = {"setup": []}
    setup_s = []
    for _ in range(SETUP_REPEATS):
        w = files = None
        gc.collect()
        speed.mark()
        start = time.perf_counter()
        w, files = setup(workloads, args.workload, args.seed, work)
        raw["setup"].append(time.perf_counter() - start)
        setup_s.append(speed.scale(raw["setup"][-1]))
    rss_check(launcher, tally)
    check_minimize = minimize_checker(workloads, w)
    q_path, map_path = work / "Q.wnfa", work / "M.txt"
    a, b, b_neg = str(files["A"]), str(files["B"]), str(files["Bneg"])
    commands = {
        "validate": (wnfa_argv("validate", a), 0, ("ok\n",)),
        "minimize": (wnfa_argv("minimize", a, "-o", str(q_path), "--class-map", str(map_path)), 0, ("",)),
        "equiv": (wnfa_argv("equiv", a, b), 0, ("Isomorphic\n",)),
        "equiv_neg": (wnfa_argv("equiv", a, b_neg), 1, ("SizeMismatch\n", "NotIsomorphic\n")),
    }
    samples: dict[str, list[float]] = {key: [] for key in ("minimize_rss_mb", "equiv_rss_mb", *commands)}
    raw.update({key: [] for key in commands})

    start = time.perf_counter()
    speed.mark()
    while True:
        round_start = time.perf_counter()
        for key, (argv, code, outputs) in commands.items():
            result = launcher.run(argv)
            raw[key].append(result["wall_s"])
            samples[key].append(speed.scale(result["wall_s"]))
            problem = expect_exit(result, code, outputs)
            if key == "minimize":
                samples["minimize_rss_mb"].append(result["maxrss_mb"])
                if problem is None:
                    problem = check_minimize(q_path.read_text(), map_path.read_text())
            elif key == "equiv":
                samples["equiv_rss_mb"].append(result["maxrss_mb"])
            tally.check(key, problem)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    print(
        "unscaled wall medians: "
        + ", ".join(f"{key} {statistics.median(v):.4f} s" for key, v in raw.items()),
        file=sys.stderr,
    )
    metrics = {"setup_s": (statistics.median(setup_s), "s", len(setup_s))}
    for key in commands:
        metrics[f"{key}_s"] = (statistics.median(samples[key]), "s", len(samples[key]))
    for key in ("minimize_rss_mb", "equiv_rss_mb"):
        metrics[key] = (statistics.median(samples[key]), "MB", len(samples[key]))
    return metrics


def run_traced(args, workloads, launcher: Launcher, work: Path, tally: Tally) -> dict:
    import layers

    w, files = setup(workloads, args.workload, args.seed, work)
    small = workloads.build(args.workload, args.seed, SMALL_SCALE)
    text_a = files["A"].read_text()
    text_small = workloads.serialize_wnfa(small.a)
    edges_a, edges_small = len(w.a.edges), len(small.a.edges)
    check_minimize = minimize_checker(workloads, w)
    q_path, map_path = work / "Q.wnfa", work / "M.txt"
    minimize_argv = wnfa_argv("minimize", str(files["A"]), "-o", str(q_path), "--class-map", str(map_path))
    rss_check(launcher, tally)
    counts = layers.queue_counts(w.a)
    gc.collect()
    # Setup objects live for the whole run; keep the collector from
    # rescanning them inside the timed calls.
    gc.freeze()

    tracer, untraced = layers.Tracer(), layers.Tracer(enabled=False)
    totals: dict[str, list[float]] = {"traced": [], "untraced": [], "cli_minimize": [], "startup": []}
    runs: list[str] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        tracer.run = f"{args.workload}/{args.seed}/{len(runs)}"
        runs.append(tracer.run)
        order = [tracer, untraced] if len(runs) % 2 else [untraced, tracer]
        for t in order:
            t_start = time.perf_counter()
            with t.span("round"):
                a, report, result, out = layers.minimize_path(t, text_a)
                answers = layers.equivalence_path(t, a, result, w.b, w.b_neg)
            totals["traced" if t.enabled else "untraced"].append(time.perf_counter() - t_start)
            shape = {
                "quotient_edges": len(result.quotient.edges),
                "serialize_bytes": len(out.encode()),
                "witness_pairs": answers["witness_pairs"],
            }
            map_text = "".join(f"class {p} {c}\n" for p, c in enumerate(result.class_map, 1))
            tally.check("in-process validate", None if report.ok else "reported violations")
            tally.check("in-process minimize", check_minimize(out, map_text))
            tally.check("in-process equiv", None if answers["equiv"] else "not bisimilar")
            tally.check("in-process equiv_neg", "bisimilar" if answers["equiv_neg"] else None)
            tally.check("in-process iso", None if answers["iso"] else "quotients differ")
            del a, report, result, out
            gc.collect()
        with tracer.span("small"):
            layers.minimize_path(tracer, text_small, prefix="small.")
        gc.collect()

        cli = launcher.run(minimize_argv)
        totals["cli_minimize"].append(cli["wall_s"])
        problem = expect_exit(cli, 0, ("",))
        tally.check("minimize", problem or check_minimize(q_path.read_text(), map_path.read_text()))
        helped = launcher.run(wnfa_argv("--help"))
        totals["startup"].append(helped["wall_s"])
        tally.check("wnfa --help", expect_exit(helped, 0, (helped["stdout"],)))

        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    gc.unfreeze()

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.spans})
    )
    print(f"spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)

    def med(name: str, prefix: str = "") -> float:
        return statistics.median(tracer.seconds(prefix + name, r) for r in runs)

    def med_sum(names: list[str], prefix: str = "") -> float:
        return statistics.median(
            sum(tracer.seconds(prefix + name, r) for name in names) for r in runs
        )

    propagate = statistics.median(
        tracer.seconds("minimize.boundary_bits", r) - tracer.seconds("minimize.extrema", r)
        for r in runs
    )
    timings = {
        "automaton.parse": (med("automaton.parse"), edges_a),
        "automaton.validate": (med("automaton.validate"), edges_a),
        "minimize.extrema": (med("minimize.extrema"), edges_a),
        "minimize.propagate": (propagate, edges_a),
        "minimize.quotient": (med("minimize.quotient"), edges_a),
        "automaton.serialize": (med("automaton.serialize"), edges_a),
        "equivalence.decide": (med("equivalence.decide"), edges_a + len(w.b.edges)),
        "equivalence.decide_neg": (med("equivalence.decide_neg"), edges_a + len(w.b_neg.edges)),
        "equivalence.iso": (med("equivalence.iso"), edges_a + len(w.b.edges)),
        "relations.witness": (med("relations.witness"), edges_a + len(w.b.edges)),
    }
    n_rounds = len(runs)
    metrics: dict[str, tuple[float, str, int]] = {}
    for name, (seconds, edges) in timings.items():
        metrics[f"{name}_s"] = (seconds, "s", n_rounds)
        metrics[f"{name}_ns_per_edge"] = (seconds * 1e9 / edges, "ns/edge", n_rounds)

    metrics.update(
        {
            "minimize.merge_ratio": (1 - counts["classes"] / w.a.n, "ratio", 1),
            "minimize.edge_keep_ratio": (shape["quotient_edges"] / edges_a, "ratio", 1),
            "minimize.seeds": (counts["seeds"], "count", 1),
            "minimize.enqueues": (counts["enqueues"], "count", 1),
            "minimize.classes": (counts["classes"], "count", 1),
            "automaton.serialize_bytes": (shape["serialize_bytes"], "bytes", 1),
            "relations.witness_pairs": (shape["witness_pairs"], "count", 1),
            "relations.witness_pairs_per_state": (shape["witness_pairs"] / w.a.n, "pairs/state", 1),
            "cli.startup_s": (statistics.median(totals["startup"]), "s", n_rounds),
            "cli.overhead_s": (
                statistics.median(totals["cli_minimize"])
                - med_sum(["automaton.parse", "automaton.validate", "minimize.boundary_bits",
                           "minimize.quotient", "automaton.serialize"]),
                "s",
                n_rounds,
            ),
            "trace.overhead_s": (
                statistics.median(totals["traced"]) - statistics.median(totals["untraced"]),
                "s",
                n_rounds,
            ),
            "minimize.growth_exponent": (
                layers.growth_exponent(
                    med_sum(["minimize.boundary_bits", "minimize.quotient"], "small."),
                    med_sum(["minimize.boundary_bits", "minimize.quotient"]),
                    edges_small,
                    edges_a,
                ),
                "exponent",
                n_rounds,
            ),
            "automaton.parse_growth_exponent": (
                layers.growth_exponent(med("automaton.parse", "small."), med("automaton.parse"),
                                       edges_small, edges_a),
                "exponent",
                n_rounds,
            ),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["random-nfa", "staircase-dfa", "merge-chain"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wnfa" / "cli.py").is_file():
        print(f"no wnfa sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Started before any workload exists, so children forked from it never
    # inherit the harness's memory.
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    launcher = Launcher(work)
    try:
        import workloads

        tally = Tally()
        run = run_traced if args.trace else run_cli
        metrics = run(args, workloads, launcher, work, tally)
    finally:
        launcher.close()
        shutil.rmtree(work)

    failed = len(tally.failures)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:12s} ({n} samples)")
    print(f"{'fail_ratio':40s} {failed / tally.attempted:14.6g} {'ratio':12s} ({failed} of {tally.attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
