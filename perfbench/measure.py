"""Measurement helpers shared by the workloads: percentiles, memory, layers."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Every per-layer metric and its unit; the traced run of every workload
#: prints all of them.
PER_LAYER = {
    "graph.build_s": "s",
    "graph.freeze_s": "s",
    "graph.rss_built_mb": "MB",
    "parser.parse_ms": "ms",
    "bgp.step_a_ms": "ms",
    "bgp.rows": "count",
    "evaluator.step_b_ms": "ms",
    "evaluator.seed_nodes": "count",
    "table.step_c_ms": "ms",
    "ctp.search_ms": "ms",
    "ctp.zobrist_codes": "count",
    "ctp.grows": "count",
    "ctp.queue_pushes": "count",
    "ctp.merges_attempted": "count",
    "ctp.merges": "count",
    "ctp.mo_copies": "count",
    "ctp.trees_kept": "count",
    "ctp.results": "count",
    "ctp.merge_yield": "ratio",
    "ctp.pool_union_hit_ratio": "ratio",
    "dispatch.overhead_ms": "ms",
    "pool.dispatches": "count",
    "pool.compactions": "count",
    "pool.resnapshots_avoided": "count",
    "pool.respawns": "count",
    "pool.delta_size": "count",
    "pool.worker_rss_mb": "MB",
    "serve.handle_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.ingest_ms": "ms",
    "serve.prewarm_s": "s",
    "trace.overhead_pct": "%",
}

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """90th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_self_mb() -> float:
    """Lifetime peak resident set of this process (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_mb(pid, field: str) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def rss_now_mb() -> float:
    return _status_mb("self", "VmRSS:") or 0.0


def descendants() -> List[int]:
    """Pids of every live descendant of this process (read from /proc)."""
    parents: Dict[int, List[int]] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces; the fields after it do not
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        pid = frontier.pop()
        for child in parents.get(pid, ()):
            out.append(child)
            frontier.append(child)
    return out


def descendants_peak_mb() -> float:
    """Sum of the peak resident sets (``VmHWM``) of live descendants."""
    return sum(_status_mb(pid, "VmHWM:") or 0.0 for pid in descendants())


def settle() -> None:
    """End of set-up: collect, then move the long-lived set-up objects
    (graphs, inputs) out of the collector's view.  Without it a full
    collection scanning ~600k graph objects (0.2-0.3 s at 10^5 nodes) lands
    on whichever query happens to allocate past the threshold."""
    gc.collect()
    gc.freeze()


def timed(function, *args, **kwargs):
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


def query_layers(records: List[dict], zobrist_calls: int) -> Dict[str, float]:
    """Per-layer metrics of a set of evaluated queries.

    ``records`` hold the :class:`QueryResult` of each query plus the
    traced parse time and BGP row count.  Times are means per query (per
    search for ``ctp.*``); counts are means per query or per search, so
    they repeat exactly when the same queries run.
    """
    results = [record["result"] for record in records]
    # CTPs served from the memo ran no search
    reports = [report for r in results for report in r.ctp_reports if report.dispatch_mode != "memo"]
    searches = [report.result_set for report in reports]
    in_process = sum(1 for report in reports if report.dispatch_mode in ("serial", "thread"))

    def per_search(field: str) -> float:
        return mean(getattr(result_set.stats, field) for result_set in searches)

    def total(field: str) -> int:
        return sum(getattr(result_set.stats, field) for result_set in searches)

    hits = total("pool_union_hits")
    lookups = hits + total("pool_union_misses")
    attempted = total("merges_attempted")
    return {
        "parser.parse_ms": mean(record["parse_s"] for record in records) * 1000.0,
        "bgp.step_a_ms": mean(r.timings.bgp_seconds for r in results) * 1000.0,
        "bgp.rows": mean(record["bgp_rows"] for record in records),
        "evaluator.step_b_ms": mean(r.timings.ctp_seconds for r in results) * 1000.0,
        "evaluator.seed_nodes": mean(
            sum(size for report in r.ctp_reports for size in report.seed_set_sizes if size is not None)
            for r in results
        ),
        "table.step_c_ms": mean(r.timings.join_seconds for r in results) * 1000.0,
        "ctp.search_ms": mean(report.seconds for report in reports) * 1000.0,
        "ctp.zobrist_codes": zobrist_calls / in_process if in_process else 0.0,
        "ctp.grows": per_search("grows"),
        "ctp.queue_pushes": per_search("queue_pushes"),
        "ctp.merges_attempted": per_search("merges_attempted"),
        "ctp.merges": per_search("merges"),
        "ctp.mo_copies": per_search("mo_copies"),
        "ctp.trees_kept": per_search("trees_kept"),
        "ctp.results": per_search("results_found"),
        "ctp.merge_yield": total("merges") / attempted if attempted else 0.0,
        "ctp.pool_union_hit_ratio": hits / lookups if lookups else 0.0,
    }


def report(attempted: int, failed: int, values: Dict[str, float], units: Dict[str, str]) -> dict:
    """The result line.  ``correct`` speaks of the operations that did not
    fail: every one of them passed the checker."""
    return {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
