"""The traced run: each layer's public functions called in-process, one span each.

Layers are the modules of the ``wnfa`` package: ``automaton`` (parse,
validate, serialize), ``minimize`` (extrema, propagation, quotient),
``equivalence`` (decision, isomorphism test) and ``relations`` (the witness
the decision builds).  Spans are recorded here, around the calls, and the
per-layer metrics are medians of span durations over the run's rounds.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager

from wnfa import (
    Relation,
    boundary_bits,
    compose,
    compute_extrema,
    inverse,
    minimize,
    order_respecting_iso,
    parse_wnfa,
    quotient,
    serialize_wnfa,
    validate,
    wheeler_bisimilar,
)
from wnfa.minimize import TRACE_SEED, TRACE_SET_JMAX, TRACE_SET_JMIN


class Tracer:
    """In-memory spans: name, start, end, parent span and run id.

    A disabled tracer runs the same code but keeps nothing, which is how
    the tracing overhead is measured.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()

    def seconds(self, name: str, run: str) -> float:
        """Total duration of the spans called ``name`` in run ``run``."""
        return sum(
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in self.spans
            if s["name"] == name and s["run"] == run
        )


def minimize_path(tracer: Tracer, text: str, prefix: str = ""):
    """What ``wnfa minimize`` does in-process: parse, validate, minimize, serialize.

    ``compute_extrema`` is also timed on its own; ``boundary_bits`` repeats
    it internally, so propagation is boundary_bits minus extrema.
    """
    with tracer.span(prefix + "automaton.parse"):
        a = parse_wnfa(text)
    with tracer.span(prefix + "automaton.validate"):
        report = validate(a)
    with tracer.span(prefix + "minimize.extrema"):
        compute_extrema(a)
    with tracer.span(prefix + "minimize.boundary_bits"):
        bits = boundary_bits(a)
    with tracer.span(prefix + "minimize.quotient"):
        result = quotient(a, bits)
    with tracer.span(prefix + "automaton.serialize"):
        out = serialize_wnfa(result.quotient)
    return a, report, result, out


def equivalence_path(tracer: Tracer, a, result_a, b, b_neg) -> dict:
    """The decision on both pairs, then its iso test and witness calls alone."""
    # Freeing a large witness takes long enough to distort whichever span
    # comes next, so each release happens in a span no metric reads.
    with tracer.span("equivalence.decide"):
        verdict = wheeler_bisimilar(a, b)
    answers = {"equiv": verdict.bisimilar}
    with tracer.span("release"):
        del verdict
        gc.collect()
    with tracer.span("equivalence.decide_neg"):
        verdict_neg = wheeler_bisimilar(a, b_neg)
    answers["equiv_neg"] = verdict_neg.bisimilar
    with tracer.span("release"):
        del verdict_neg
        gc.collect()

    result_b = minimize(b)
    with tracer.span("equivalence.iso"):
        answers["iso"] = order_respecting_iso(result_a.quotient, result_b.quotient)
    # The same public calls wheeler_bisimilar makes to build its witness.
    with tracer.span("relations.witness"):
        rel_a = result_a.as_relation()
        rel_b = result_b.as_relation()
        inv_b = inverse(rel_b)
        iso = Relation.identity(result_a.quotient.n)
        witness = compose(inv_b, compose(iso, rel_a))
    answers["witness_pairs"] = len(witness.pairs)
    with tracer.span("release"):
        del rel_a, rel_b, inv_b, iso, witness, result_b
        gc.collect()
    return answers


def queue_counts(a) -> dict[str, int]:
    """Seeds, enqueues and classes of one ``boundary_bits`` call with a trace."""
    events: list = []
    bits = boundary_bits(a, events)
    seeds = sum(1 for event, _ in events if event == TRACE_SEED)
    derived = sum(1 for event, _ in events if event in (TRACE_SET_JMIN, TRACE_SET_JMAX))
    return {"seeds": seeds, "enqueues": seeds + derived, "classes": bits.num_classes}


def growth_exponent(t_small: float, t_full: float, e_small: int, e_full: int) -> float:
    """Slope of log time against log edges between two sizes (1.0 is linear)."""
    return math.log(t_full / t_small) / math.log(e_full / e_small)
