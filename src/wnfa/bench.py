"""Timing harness for the minimization pipeline."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .generators import gen_random_wheeler
from .minimize import TRACE_DEQUEUE, boundary_bits, minimize


@dataclass(frozen=True)
class BenchRow:
    states: int
    edges: int
    seconds: float
    enqueues: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    growth_exponent: float | None

    @property
    def enqueue_bound_ok(self) -> bool:
        return all(r.enqueues <= r.states - 1 for r in self.rows)


def run_bench(sizes, seed: int = 0, sigma: int = 8) -> BenchReport:
    """Minimize one random Wheeler NFA of roughly each requested edge count.

    Every row records the actual state and edge counts, the wall time of the
    full untraced minimize call, and how many boundary indices the queue
    stage enqueued, counted in a separate traced run; the structural bound
    is at most n-1 enqueues.  With two or more rows the report fits the
    slope of log(time) against log(edges), the empirical growth exponent of
    the pipeline.
    """
    rows = []
    for k, size in enumerate(sizes):
        # the generator lands near 1.4 edges per state at epl=2
        n = max(2, int(int(size) * 0.7))
        a = gen_random_wheeler(n, 2, sigma, seed + k)
        t0 = time.perf_counter()
        minimize(a)
        elapsed = time.perf_counter() - t0
        trace: list = []
        boundary_bits(a, trace)
        enqueues = sum(1 for event, _ in trace if event != TRACE_DEQUEUE)
        rows.append(BenchRow(a.n, len(a.edges), elapsed, enqueues))

    exponent = None
    if len(rows) >= 2:
        xs = [math.log(r.edges) for r in rows]
        ys = [math.log(max(r.seconds, 1e-9)) for r in rows]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        denom = sum((x - mx) ** 2 for x in xs)
        if denom > 0:
            exponent = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    return BenchReport(tuple(rows), exponent)


def format_report(report: BenchReport) -> str:
    lines = ["states\tedges\tseconds\tenqueues"]
    for r in report.rows:
        lines.append(f"{r.states}\t{r.edges}\t{r.seconds:.6f}\t{r.enqueues}")
    if report.growth_exponent is not None:
        lines.append(f"time-vs-edges growth exponent: {report.growth_exponent:.3f}")
    if not report.enqueue_bound_ok:
        lines.append("ERROR: enqueue count exceeded n-1")
    return "\n".join(lines) + "\n"
