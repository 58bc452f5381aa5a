"""Workload ``serve-ingest``: a QueryServer with a process pool under ingest.

A ``scale_workload`` graph of 5x10^4 nodes is served by a ``QueryServer``
(process dispatch, a ``WorkerPool`` of at most two workers).  Two client
threads send distinct local-CTP EQL requests in a closed loop; after every
INGEST_EVERY-th completed request an append-only batch of INGEST_SIZE
edges lands, so the delta crosses the compaction threshold every
COMPACTION_THRESHOLD / INGEST_SIZE batches.  This exercises dispatch, IPC
and pickling, delta shipping, the rebuild of the worker context on every
new generation, and compaction with resnapshot.
"""

from __future__ import annotations

import random
import time
from typing import List

import checker
import measure
import serving
from scale_local import LIMIT, MAX_EDGES, MAX_TREES, connect_text
from tracing import Tracer, install_program_spans

NODES = 50_000
CLIENTS = 2
NUM_REQUESTS = 400
INGEST_EVERY = 10
INGEST_SIZE = 4
COMPACTION_THRESHOLD = 16
#: Requests served one at a time to warm the pool up during set-up.
WARMUP_REQUESTS = 4
#: Requests replayed after the timed phase, through the server and
#: serially in process, at the final generation.
REPLAY = 6
#: Requests of each pass of the traced run: a fixed number, so its counts
#: repeat exactly.
TRACED_REQUESTS = 40
#: Ingest batch numbers of the traced pass and of the replay start here,
#: so no batch is applied twice.
TRACED_BATCHES = 1_000
REPLAY_BATCH = 10_000


def config():
    from repro.ctp.config import SearchConfig

    return SearchConfig(max_trees=MAX_TREES)


def set_up(seed: int):
    """Build and freeze the graph, start and prewarm the server, then
    serve WARMUP_REQUESTS requests one at a time.

    Returns (session, timed requests, build_s, freeze_s, prewarm_s); each
    request is (a, b, text)."""
    from repro.workloads.realworld import scale_workload

    (graph, ctps), build_s = measure.timed(scale_workload, NODES, seed=seed, num_ctps=NUM_REQUESTS)
    _, freeze_s = measure.timed(graph.ensure_base)
    requests = []
    for ctp in ctps:
        a, b = ctp[0][0], ctp[1][0]
        requests.append((a, b, connect_text(graph.node(a).label, graph.node(b).label)))
    session = serving.Session(graph, config(), serving.workers(), COMPACTION_THRESHOLD)
    prewarm_s = session.prewarm()
    for index, (_, _, text) in enumerate(requests[-WARMUP_REQUESTS:]):
        session.handle(index, text)
    return session, requests[:-WARMUP_REQUESTS], build_s, freeze_s, prewarm_s


def serve(session, requests, seed: int, first_batch: int, seconds=None, count=None) -> float:
    graph = session.graph
    return session.serve(
        [text for _, _, text in requests],
        clients=CLIENTS,
        seconds=seconds,
        count=count,
        ingest_every=INGEST_EVERY,
        next_batch=lambda index: serving.ingest_batch(seed, first_batch + index, graph.num_nodes, INGEST_SIZE),
    )


def replay(session, requests, seed: int, batch: int = REPLAY_BATCH, tracer=None, records=None) -> list:
    """Differential replay at the final generation: each sampled request is
    served, then evaluated serially in process on the same generation.

    Returns [(request index, response, serial QueryResult, serial ms)]."""
    from repro.query.evaluator import evaluate_query

    graph = session.graph
    # a fresh generation, so no served answer can come from the memo
    session.ingest(serving.ingest_batch(seed, batch, graph.num_nodes, INGEST_SIZE))
    out = []
    for index in random.Random(seed).sample(range(len(requests)), REPLAY):
        text = requests[index][2]
        response, _ = session.handle(index, text)
        view = graph.read_view()

        def call():
            return evaluate_query(view, text, algorithm="molesp", base_config=config())

        started = time.perf_counter()
        result = call() if tracer is None else serving.traced_call(tracer, f"replay-{index}", records, call)
        out.append((index, response, result, (time.perf_counter() - started) * 1000.0))
    return out


def count_failures(facts, requests, session, replays, problems_out: list) -> int:
    """Check every ingest, response and replay against the checker's log."""
    failed = 0
    for edges, result, _ in sorted(session.ingests, key=lambda item: item[1].edge_ids[:1]):
        if result.ok:
            problems = facts.add_edges([edge[:3] for edge in edges], result.edge_ids, result.generation)
        else:
            problems = [f"status {result.status}: {result.error}"]
        if problems:
            failed += 1
            problems_out.append(f"ingest: {problems[0]}")

    def check(index, response) -> List[str]:
        a, b, _ = requests[index % len(requests)]
        problems = serving.response_problems(response)
        if problems:
            return problems
        return checker.check_connect_rows(
            facts, a, b, response.rows, MAX_EDGES, LIMIT, generation=response.stats.generation
        )

    for index, response, _ in session.responses:
        problems = check(index, response)
        if problems:
            failed += 1
            problems_out.append(f"request {index}: {problems[0]}")
    for index, response, result, _ in replays:
        problems = check(index, response)
        if not problems:
            served = sorted(checker.tree_key(row[0]) for row in response.rows)
            serial = sorted(checker.tree_key(row[0]) for row in result.rows)
            if served != serial or response.stats.generation != result.generation:
                problems = [f"served rows differ from the serial evaluation at generation {result.generation}"]
        if problems:
            failed += 1
            problems_out.append(f"replay of request {index}: {problems[0]}")
    return failed


def run(seed: int, seconds: float, trace: bool, problems: list) -> dict:
    if trace:
        return run_traced(seed, problems)
    setups = []
    session = None
    try:
        for _ in range(measure.SETUP_REPEATS):
            if session is not None:
                session.close()
                session = None  # drop the previous repetition's graph first
            started = time.perf_counter()
            session, requests, _, _, _ = set_up(seed)
            setups.append(time.perf_counter() - started)
        facts = checker.GraphFacts(session.graph)
        measure.settle()
        elapsed = serve(session, requests, seed, 0, seconds=seconds)
        latencies = [latency for _, _, latency in session.responses]
        replays = replay(session, requests, seed)
        peak_mb = measure.peak_self_mb() + session.worker_peak_mb
    finally:
        if session is not None:
            session.close()
        serving.stop_helpers()
    failed = count_failures(facts, requests, session, replays, problems)
    values = {
        "setup_s": measure.p50(setups),
        "query_p50_ms": measure.p50(latencies),
        "query_p90_ms": measure.p90(latencies),
        "throughput_qps": len(latencies) / elapsed,
        "peak_rss_mb": peak_mb,
    }
    attempted = len(session.responses) + len(session.ingests) + len(replays)
    return measure.report(attempted, failed, values, measure.END_TO_END)


def run_traced(seed: int, problems: list) -> dict:
    """Serving layers from a traced pass of TRACED_REQUESTS requests (after
    an untraced pass of the same size); query layers from the replay."""
    from repro.serve import server as server_module

    tracer = Tracer()
    session = None
    try:
        with tracer.span("graph.build"):
            session, requests, build_s, freeze_s, prewarm_s = set_up(seed)
        rss_built = measure.rss_now_mb()
        facts = checker.GraphFacts(session.graph)
        measure.settle()
        untraced_s = serve(session, requests, seed, 0, count=TRACED_REQUESTS)
        # dispatch overhead compares untraced server and serial times
        replays = replay(session, requests, seed)
        overheads = [served.stats.seconds * 1000.0 - ms for _, served, _, ms in replays if served.ok]
        untraced = list(session.responses)
        session.responses.clear()
        install_program_spans(tracer)
        tracer.wrap(server_module, "evaluate_query", "evaluator.evaluate_query")
        session.tracer = tracer
        records: list = []
        try:
            traced_s = serve(session, requests, seed, TRACED_BATCHES, count=TRACED_REQUESTS)
            zobrist_before = tracer.counters["ctp.zobrist_codes"]
            replays += replay(session, requests, seed, REPLAY_BATCH + 1, tracer, records)
            zobrist = tracer.counters["ctp.zobrist_codes"] - zobrist_before
        finally:
            tracer.uninstall()
        layers = serving.serve_layers(session, overheads)
        session.responses.extend(untraced)
    finally:
        if session is not None:
            session.close()
        serving.stop_helpers()
    layers.update(measure.query_layers(records, zobrist))
    layers.update(
        {
            "graph.build_s": build_s,
            "graph.freeze_s": freeze_s,
            "graph.rss_built_mb": rss_built,
            "serve.prewarm_s": prewarm_s,
            "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        }
    )
    failed = count_failures(facts, requests, session, replays, problems)
    tracer.dump(serving.trace_path("serve-ingest", seed))
    attempted = len(session.responses) + len(session.ingests) + len(replays)
    return measure.report(attempted, failed, layers, measure.PER_LAYER)
