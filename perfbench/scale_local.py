"""Workload ``scale-local``: tight-radius CTPs on a 10^5-node graph.

A ``scale_workload`` graph with 10^5 nodes and 2x10^5 edges; each m=2 CTP
(seed sets sampled inside a radius-2 BFS ball) is issued as EQL text
``CONNECT("ent_i", "ent_j") ... MAX 4 LIMIT 8`` through ``evaluate_query``,
once with BFT and once with MoLESP, with ``max_trees`` 4000.  The id space
is huge and the touched set tiny, so the per-search cost that follows the
graph rather than the search dominates (the Zobrist code table, pushes on
scale-free hubs, adjacency-cache fill).
"""

from __future__ import annotations

import time
from typing import List

import checker
import measure
import serving
from tracing import Tracer, install_program_spans

NODES = 100_000
MAX_EDGES = 4
LIMIT = 8
MAX_TREES = 4_000
ALGORITHMS = ("bft", "molesp")
#: CTPs sampled per seed.  A run times a prefix of them (about 40 CTPs, 80
#: searches, in 25 s on a 2-core machine); the last WARMUP_CTPS are the
#: warm-up.
NUM_CTPS = 200
WARMUP_CTPS = 2
#: CTPs of the traced run: a fixed set, so its counts repeat exactly.
TRACED_CTPS = 10


def connect_text(a: str, b: str) -> str:
    return f'SELECT ?w WHERE {{ CONNECT("{a}", "{b}") AS ?w MAX {MAX_EDGES} LIMIT {LIMIT} }}'


def build(seed: int):
    """Returns (graph, frozen graph, [(a, b)] seed pairs, build_s, freeze_s)."""
    from repro.workloads.realworld import scale_workload

    (graph, ctps), build_s = measure.timed(scale_workload, NODES, seed=seed, num_ctps=NUM_CTPS)
    frozen, freeze_s = measure.timed(graph.freeze)
    pairs = [(ctp[0][0], ctp[1][0]) for ctp in ctps]
    return graph, frozen, pairs, build_s, freeze_s


def operations(graph, pairs):
    """(algorithm, a, b, text) per search, BFT then MoLESP per CTP."""
    return [
        (name, a, b, connect_text(graph.node(a).label, graph.node(b).label))
        for a, b in pairs
        for name in ALGORITHMS
    ]


def evaluate(frozen, operation):
    from repro.ctp.config import SearchConfig
    from repro.query.evaluator import evaluate_query

    name, _, _, text = operation
    return evaluate_query(frozen, text, algorithm=name, base_config=SearchConfig(max_trees=MAX_TREES))


def count_failures(graph, outcomes, problems_out: list) -> int:
    facts = checker.GraphFacts(graph)
    failed = 0
    distances = {}
    for operation, outcome in outcomes:
        name, a, b, _ = operation
        if isinstance(outcome, Exception):
            problems = [f"{type(outcome).__name__}: {outcome}"]
        else:
            problems = []
            if (a, b) not in distances:
                distances[(a, b)] = facts.distance(a, b, MAX_EDGES)
            if distances[(a, b)] is None:
                problems.append(f"seeds {a} and {b} are not within {MAX_EDGES} hops")
            result_set = outcome.ctp_reports[0].result_set
            if result_set.timed_out:
                problems.append("the CTP result set reports timed_out")
            # A complete BFT search of a pair within MAX hops must find a
            # tree; one cut by max_trees may legitimately find none.
            if name == "bft" and not outcome.rows and result_set.complete:
                problems.append("complete BFT search found no tree within MAX hops")
            problems.extend(checker.check_connect_rows(facts, a, b, outcome.rows, MAX_EDGES, LIMIT))
        if problems:
            failed += 1
            problems_out.append(f"{name} {a}-{b}: {problems[0]}")
    return failed


def run_operations(frozen, operations_list, outcomes, latencies=None, seconds=None, evaluate_one=evaluate) -> float:
    """Run the operations in order; with ``seconds``, keep going (cycling
    if the list runs out) until that much time has passed."""
    started = time.perf_counter()
    position = 0
    while position < len(operations_list) or seconds is not None:
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        operation = operations_list[position % len(operations_list)]
        position += 1
        begin = time.perf_counter()
        try:
            result = evaluate_one(frozen, operation)
        except Exception as error:  # counted as a failed operation
            outcomes.append((operation, error))
            continue
        if latencies is not None:
            latencies.append((time.perf_counter() - begin) * 1000.0)
        outcomes.append((operation, result))
    return time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, problems: list) -> dict:
    if trace:
        return run_traced(seed, problems)
    setups = []
    for _ in range(measure.SETUP_REPEATS):
        graph = frozen = None  # drop the previous repetition's graph first
        started = time.perf_counter()
        graph, frozen, pairs, _, _ = build(seed)
        timed_ops = operations(graph, pairs[:-WARMUP_CTPS])
        run_operations(frozen, operations(graph, pairs[-WARMUP_CTPS:]), [])  # warm-up
        setups.append(time.perf_counter() - started)
    measure.settle()
    outcomes: list = []
    latencies: List[float] = []
    # Searches run in list order until the time is up; every search is an
    # independent sample.
    elapsed = run_operations(frozen, timed_ops, outcomes, latencies, seconds=seconds)
    failed = count_failures(graph, outcomes, problems)
    values = {
        "setup_s": measure.p50(setups),
        "query_p50_ms": measure.p50(latencies),
        "query_p90_ms": measure.p90(latencies),
        "throughput_qps": len(latencies) / elapsed,
        "peak_rss_mb": measure.peak_self_mb(),
    }
    return measure.report(len(outcomes), failed, values, measure.END_TO_END)


def run_traced(seed: int, problems: list) -> dict:
    """Per-layer metrics from TRACED_CTPS CTPs (after an untraced pass)."""
    from repro.ctp.config import SearchConfig

    tracer = Tracer()
    with tracer.span("graph.build"):
        graph, frozen, pairs, build_s, freeze_s = build(seed)
    rss_built = measure.rss_now_mb()
    measure.settle()
    traced_ops = operations(graph, pairs[:TRACED_CTPS])
    run_operations(frozen, operations(graph, pairs[-WARMUP_CTPS:]), [])  # warm-up, as untraced
    outcomes: list = []
    untraced_s = run_operations(frozen, traced_ops, outcomes)
    install_program_spans(tracer)
    records: list = []
    try:
        traced_s = run_operations(
            frozen,
            traced_ops,
            outcomes,
            evaluate_one=lambda f, op: serving.traced_call(
                tracer, f"{op[0]}-{op[1]}-{op[2]}", records, lambda: evaluate(f, op)
            ),
        )
    finally:
        tracer.uninstall()
    layers = measure.query_layers(records, tracer.counters["ctp.zobrist_codes"])
    failed = count_failures(graph, outcomes, problems)
    served, probe_attempted, probe_failed = serving.probe(
        tracer, graph, [op[3] for op in traced_ops if op[0] == "molesp"][:4], SearchConfig(max_trees=MAX_TREES)
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
    tracer.dump(serving.trace_path("scale-local", seed))
    return measure.report(
        len(outcomes) + probe_attempted,
        failed + probe_failed,
        layers,
        measure.PER_LAYER,
    )
