"""Workload ``paper-eql``: the paper's own EQL queries, serially, MoLESP.

* the CDF grid of Figures 13/14: m in {2, 3}, (N_T, N_L) up to (64, 128),
  S_L in {3, 6}, bidirectional and ``UNI``;
* J1-J3 of Table 1 on ``yago_like(0.05)``.

The graphs are small (at most ~2k edges), so the per-query layers (parse,
BGP step (A), seed derivation, context creation, join step (C)) carry a
large share of the time.  Each query runs in its own fresh query context
(``evaluate_query`` without a context argument).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

import checker
import measure
import serving
from tracing import Tracer, install_program_spans

GRID = ((8, 16), (16, 32), (32, 64), (64, 128))
#: Per-CTP bounds of J1-J3: counts only, never a wall-clock TIMEOUT.  Each
#: of the three stops at its LIMIT; J2's complete answer on the Table 1
#: graph holds 305 trees and takes 0.7-0.9 s to search out, 35 times its
#: LIMIT 50 run.
TABLE1_FILTERS = {"J1": "MAX 3 LIMIT 500", "J2": "MAX 3 LIMIT 50", "J3": "MAX 3 LIMIT 200"}
TABLE1_MAX = 3


@dataclass
class Query:
    name: str
    graph: Any  # the frozen CSR graph the query runs on
    source: Any  # the mutable graph (for the checker's own edge copy)
    text: str
    kind: str  # "cdf" or a Table 1 name
    m: int = 0
    uni: bool = False
    links: List[tuple] = field(default_factory=list)


def build(seed: int):
    """Generate and freeze every graph; returns (queries, build_s, freeze_s)."""
    from repro.workloads.cdf import cdf_graph, cdf_query
    from repro.workloads.realworld import j1_query, j2_query, j3_query, yago_like

    rng = random.Random(seed)
    queries: List[Query] = []
    build_s = freeze_s = 0.0
    for m in (2, 3):
        for link_length in (3, 6):
            for num_trees, num_links in GRID:
                dataset, seconds = measure.timed(
                    cdf_graph, num_trees, num_links, link_length, m=m, seed=rng.randrange(2**31)
                )
                build_s += seconds
                frozen, seconds = measure.timed(dataset.graph.freeze)
                freeze_s += seconds
                for uni in (False, True):
                    queries.append(
                        Query(
                            name=f"cdf-m{m}-sl{link_length}-nt{num_trees}{'-uni' if uni else ''}",
                            graph=frozen,
                            source=dataset.graph,
                            text=cdf_query(m, "UNI" if uni else ""),
                            kind="cdf",
                            m=m,
                            uni=uni,
                            links=list(dataset.links),
                        )
                    )
    # The Table 1 graph keeps the generator's own seed, as the repository's
    # Table 1 experiment does: drawn from ``seed``, J2's answer ranged from
    # 1 to 4837 trees, and a seed with fewer trees than J2's LIMIT made J2
    # search its whole space (up to 2.2 s against ~20 ms).
    dataset, seconds = measure.timed(yago_like, 0.05)
    build_s += seconds
    frozen, seconds = measure.timed(dataset.graph.freeze)
    freeze_s += seconds
    for name, make in (("J1", j1_query), ("J2", j2_query), ("J3", j3_query)):
        queries.append(
            Query(name=name, graph=frozen, source=dataset.graph, text=make(TABLE1_FILTERS[name]), kind=name)
        )
    return queries, build_s, freeze_s


def evaluate(query: Query):
    from repro.query.evaluator import evaluate_query

    return evaluate_query(query.graph, query.text)


def check(query: Query, result, facts_cache: dict) -> List[str]:
    """Problems with one answer (an empty list when it is correct)."""
    if any(report.result_set.timed_out for report in result.ctp_reports):
        return ["a CTP result set reports timed_out"]
    facts = facts_cache.get(id(query.source))
    if facts is None:
        facts = facts_cache[id(query.source)] = checker.GraphFacts(query.source)
    if query.kind == "cdf":
        if tuple(result.columns) != ("v", "tl", "l"):
            return [f"unexpected columns {result.columns}"]
        return checker.check_cdf_rows(facts, query.m, query.uni, result.rows, query.links)
    return checker.check_table1_rows(facts, query.kind, result.rows, TABLE1_MAX)


class Outcomes:
    """Checks each answer as it arrives and keeps only the failures, so
    memory does not grow with the number of passes a run makes."""

    def __init__(self, problems: list) -> None:
        self.problems = problems
        self.facts: dict = {}
        self.attempted = 0
        self.failed = 0

    def add(self, query: Query, outcome) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            problems = [f"{type(outcome).__name__}: {outcome}"]
        else:
            problems = check(query, outcome, self.facts)
        if problems:
            self.failed += 1
            self.problems.append(f"{query.name}: {problems[0]}")


def run_pass(
    queries: List[Query], outcomes: Optional[Outcomes], latencies: Optional[list] = None, evaluate_one=evaluate
) -> float:
    """Evaluate ``queries`` in turn; returns the seconds spent in the
    program (checking each answer, when ``outcomes`` is given, is not
    counted)."""
    program_s = 0.0
    for query in queries:
        begin = time.perf_counter()
        try:
            outcome = evaluate_one(query)
        except Exception as error:  # counted as a failed operation
            outcome = error
        seconds = time.perf_counter() - begin
        program_s += seconds
        if latencies is not None and not isinstance(outcome, Exception):
            latencies.append(seconds * 1000.0)
        if outcomes is not None:
            outcomes.add(query, outcome)
    return program_s


def run(seed: int, seconds: float, trace: bool, problems: list) -> dict:
    if trace:
        return run_traced(seed, problems)
    setups = []
    for _ in range(measure.SETUP_REPEATS):
        queries = None  # drop the previous repetition's graphs first
        started = time.perf_counter()
        queries, _, _ = build(seed)
        run_pass(queries, None)  # warm-up: one untimed pass over every query
        setups.append(time.perf_counter() - started)
    measure.settle()
    outcomes = Outcomes(problems)
    latencies: List[float] = []
    elapsed = 0.0
    while elapsed < seconds:  # whole passes
        elapsed += run_pass(queries, outcomes, latencies)
    values = {
        "setup_s": measure.p50(setups),
        "query_p50_ms": measure.p50(latencies),
        "query_p90_ms": measure.p90(latencies),
        "throughput_qps": len(latencies) / elapsed,
        "peak_rss_mb": measure.peak_self_mb(),
    }
    return measure.report(outcomes.attempted, outcomes.failed, values, measure.END_TO_END)


def run_traced(seed: int, problems: list) -> dict:
    """Per-layer metrics from one traced pass (after one untraced pass)."""
    from repro.ctp.config import SearchConfig

    tracer = Tracer()
    with tracer.span("graph.build"):
        queries, build_s, freeze_s = build(seed)
    rss_built = measure.rss_now_mb()
    measure.settle()
    run_pass(queries, None)  # warm-up, as in an untraced run
    outcomes = Outcomes(problems)
    untraced_s = run_pass(queries, outcomes)
    install_program_spans(tracer)
    records: list = []
    try:
        traced_s = run_pass(
            queries,
            outcomes,
            evaluate_one=lambda q: serving.traced_call(tracer, q.name, records, lambda: evaluate(q)),
        )
    finally:
        tracer.uninstall()
    zobrist = tracer.counters["ctp.zobrist_codes"]
    layers = measure.query_layers(records, zobrist)
    # The serving layers on this workload's inputs: the Table 1 graph served
    # by a QueryServer with a process pool, its three queries as requests.
    table1 = [q for q in queries if q.kind != "cdf"]
    served, probe_attempted, probe_failed = serving.probe(
        tracer, table1[0].source, [q.text for q in table1] * 2, SearchConfig()
    )
    layers.update(served)
    layers.update(
        {
            "graph.build_s": build_s,
            "graph.freeze_s": freeze_s,
            "graph.rss_built_mb": rss_built,
            "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        }
    )
    tracer.dump(serving.trace_path("paper-eql", seed))
    return measure.report(
        outcomes.attempted + probe_attempted,
        outcomes.failed + probe_failed,
        layers,
        measure.PER_LAYER,
    )
