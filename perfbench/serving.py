"""Serving sessions: a QueryServer, client threads, ingest, worker memory.

Used by the ``serve-ingest`` workload and, in traced runs, by the short
serving probe the other workloads run on their own inputs so that every
traced run reports the serving layers.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import measure

#: Edge label of ingested edges: outside the generators' vocabularies, so
#: an ingest never adds BGP matches, only connections.
INGEST_LABEL = "ingested"


def trace_path(workload: str, seed: int) -> str:
    return os.path.join(".perfbench", f"trace-{workload}-{seed}.jsonl")


def traced_call(tracer, request_id: str, records: list, call: Callable):
    """Run one in-process query under a root span; keep its layer record."""
    first = len(tracer.spans)
    rows_before = tracer.counters["bgp.rows"]
    with tracer.request(request_id), tracer.span("evaluator.evaluate_query"):
        result = call()
    parse_s = sum(
        span[3] - span[2] for span in tracer.spans[first:] if span[1] == "parser.parse_query"
    )
    records.append({"result": result, "parse_s": parse_s, "bgp_rows": tracer.counters["bgp.rows"] - rows_before})
    return result


def ingest_batch(seed: int, index: int, num_nodes: int, size: int):
    """The ``index``-th ingest batch: ``size`` edges between existing nodes."""
    rng = random.Random(seed * 1_000_003 + index)
    edges = []
    while len(edges) < size:
        source, target = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if source != target:
            edges.append((source, target, INGEST_LABEL, 1.0))
    return tuple(edges)


class Session:
    """One QueryServer with a process pool, driven by closed-loop clients."""

    def __init__(self, graph, base_config, workers: int, compaction_threshold: Optional[int], tracer=None):
        from repro.serve import QueryServer

        self.graph = graph
        self.tracer = tracer
        self.server = QueryServer(
            graph,
            algorithm="molesp",
            base_config=base_config,
            workers=workers,
            max_pending=8,
            compaction_threshold=compaction_threshold,
            dispatch_mode="process",
        )
        self.responses: List[tuple] = []  # (request index, response, client ms)
        self.ingests: List[tuple] = []  # (batch edges, IngestResult, ms)
        self.worker_peak_mb = 0.0

    def prewarm(self) -> float:
        started = time.perf_counter()
        if not self.server.prewarm():
            raise RuntimeError("worker pool failed its health check after prewarm")
        self.sample_workers()
        return time.perf_counter() - started

    def sample_workers(self) -> None:
        self.worker_peak_mb = max(self.worker_peak_mb, measure.descendants_peak_mb())

    def handle(self, index: int, text: str):
        from repro.serve import QueryRequest

        request = QueryRequest(query=text, tag=str(index))
        started = time.perf_counter()
        if self.tracer is None:
            response = self.server.handle(request)
        else:
            with self.tracer.request(f"req-{index}"), self.tracer.span("serve.handle"):
                response = self.server.handle(request)
        return response, (time.perf_counter() - started) * 1000.0

    def ingest(self, edges) -> None:
        from repro.serve import IngestRequest

        started = time.perf_counter()
        if self.tracer is None:
            result = self.server.ingest(IngestRequest(edges=edges))
        else:
            with self.tracer.span("serve.ingest"):
                result = self.server.ingest(IngestRequest(edges=edges))
        self.ingests.append((edges, result, (time.perf_counter() - started) * 1000.0))

    def serve(
        self,
        texts: Sequence[str],
        clients: int,
        seconds: Optional[float] = None,
        count: Optional[int] = None,
        ingest_every: int = 0,
        next_batch: Optional[Callable[[int], tuple]] = None,
    ) -> float:
        """Closed loop: each client sends its next request when the last
        one returns, until ``seconds`` pass or ``count`` requests were sent.

        After every ``ingest_every``-th completed request, the client that
        completed it applies the next ingest batch once no other request is
        in flight.  The ingest and the compaction it may trigger then never
        overtake a request that pinned an older view, which the pool would
        serve by thread fallback (counted as a failure) only when the two
        threads happened to interleave that way.
        """
        turn = threading.Condition()
        state = {"next": 0, "done": 0, "batches": 0, "in_flight": 0, "writing": False}
        started = time.perf_counter()

        def client() -> None:
            while True:
                with turn:
                    while state["writing"]:
                        turn.wait()
                    index = state["next"]
                    if count is not None and index >= count:
                        return
                    if seconds is not None and time.perf_counter() - started >= seconds:
                        return
                    state["next"] += 1
                    state["in_flight"] += 1
                response, latency = self.handle(index, texts[index % len(texts)])
                with turn:
                    state["in_flight"] -= 1
                    self.responses.append((index, response, latency))
                    state["done"] += 1
                    if ingest_every and state["done"] % ingest_every == 0:
                        state["writing"] = True
                        while state["in_flight"]:
                            turn.wait()
                        self.ingest(next_batch(state["batches"]))
                        state["batches"] += 1
                        state["writing"] = False
                    turn.notify_all()

        threads = [threading.Thread(target=client, name=f"client-{n}") for n in range(clients)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            self.sample_workers()
            for thread in threads:
                thread.join(timeout=0.1)
        self.sample_workers()
        return time.perf_counter() - started

    def close(self) -> None:
        self.server.close()


def response_problems(response) -> List[str]:
    """Failure causes visible on a response envelope."""
    if response.status != "ok":
        return [f"status {response.status}: {response.error}"]
    stats = response.stats
    problems = []
    degraded = [mode for mode in stats.dispatch_modes if mode not in ("process", "memo")]
    if degraded:
        problems.append(f"dispatch degraded to {degraded}")
    if stats.retries or stats.hangs:
        problems.append(f"{stats.retries} retries, {stats.hangs} hangs")
    if stats.pool_respawns:
        problems.append(f"pool respawned {stats.pool_respawns} times")
    if stats.deadline_truncated:
        problems.append("a CTP was cut by a deadline")
    return problems


def serve_layers(session: Session, overheads_ms: Sequence[float]) -> Dict[str, float]:
    """Per-layer serving metrics of one session."""
    ok = [(response, latency) for _, response, latency in session.responses if response.ok]
    pool = session.server.pool
    return {
        "serve.handle_ms": measure.mean(r.stats.seconds * 1000.0 for r, _ in ok),
        "serve.queue_ms": measure.mean(latency - r.stats.seconds * 1000.0 for r, latency in ok),
        "serve.ingest_ms": measure.mean(ms for _, _, ms in session.ingests),
        "dispatch.overhead_ms": measure.mean(overheads_ms),
        "pool.dispatches": pool.dispatches,
        "pool.compactions": pool.compactions,
        "pool.resnapshots_avoided": pool.resnapshots_avoided,
        "pool.respawns": pool.respawns,
        "pool.delta_size": measure.mean(r.stats.delta_size for r, _ in ok),
        "pool.worker_rss_mb": session.worker_peak_mb,
    }


def serial_ms(graph, text: str, base_config) -> float:
    from repro.query.evaluator import evaluate_query

    _, seconds = measure.timed(evaluate_query, graph.read_view(), text, algorithm="molesp", base_config=base_config)
    return seconds * 1000.0


def probe(tracer, graph, texts: Sequence[str], base_config):
    """Serve ``texts`` in turn from one client, with one ingest halfway.

    Returns ``(layers, attempted, failed)``.  ``dispatch.overhead_ms``
    compares each request's server-side time with its serial in-process
    time at the final generation.
    """
    session = Session(graph, base_config, workers=workers(), compaction_threshold=256, tracer=tracer)
    try:
        with tracer.span("serve.prewarm"):
            prewarm_s = session.prewarm()
        for index, text in enumerate(texts):
            if index == len(texts) // 2:
                session.ingest(ingest_batch(0, 0, graph.num_nodes, 2))
            response, latency = session.handle(index, text)
            session.responses.append((index, response, latency))
        overheads = [
            response.stats.seconds * 1000.0 - serial_ms(graph, texts[index], base_config)
            for index, response, _ in session.responses
            if response.ok
        ]
        layers = serve_layers(session, overheads)
        layers["serve.prewarm_s"] = prewarm_s
        failed = sum(1 for _, response, _ in session.responses if response_problems(response))
        failed += sum(1 for _, result, _ in session.ingests if not result.ok)
        attempted = len(session.responses) + len(session.ingests)
    finally:
        session.close()
        stop_helpers()
    return layers, attempted, failed


def workers() -> int:
    """At most two worker processes, never more than the cores."""
    return max(1, min(2, os.cpu_count() or 1))


def stop_helpers() -> None:
    """Stop the forkserver and resource tracker multiprocessing may have
    started (pools respawned from a threaded parent use forkserver)."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
