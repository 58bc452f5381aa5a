"""Self-test of the benchmark, at a reduced size, in about half a minute.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It asserts that

* the checker rejects broken answers (a cycle, a dangling non-seed leaf,
  a missing edge, an edge from a later generation, a seed outside its set,
  a second root under UNI, too many edges, a missing planted CDF link);
* every workload runs at a reduced size with zero failed operations and
  prints every metric it promises;
* two traced runs with the same seed give exactly the same counts.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple

import run

COUNTS = (
    "bgp.rows",
    "evaluator.seed_nodes",
    "ctp.zobrist_codes",
    "ctp.grows",
    "ctp.queue_pushes",
    "ctp.merges_attempted",
    "ctp.merges",
    "ctp.mo_copies",
    "ctp.trees_kept",
    "ctp.results",
    "ctp.merge_yield",
    "ctp.pool_union_hit_ratio",
)

Tree = namedtuple("Tree", "edges nodes seeds")


def shrink() -> None:
    import paper_eql
    import scale_local
    import serve_ingest

    paper_eql.GRID = ((8, 16), (16, 32))
    scale_local.NODES = 5_000
    scale_local.NUM_CTPS = 20
    scale_local.TRACED_CTPS = 3
    serve_ingest.NODES = 5_000
    serve_ingest.NUM_REQUESTS = 60
    serve_ingest.INGEST_EVERY = 3
    serve_ingest.TRACED_REQUESTS = 12
    serve_ingest.REPLAY = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_checker() -> None:
    import checker
    from repro.graph.graph import Graph
    from repro.query.evaluator import evaluate_query
    from repro.workloads.cdf import cdf_graph, cdf_query

    graph = Graph("selftest")
    for label in "abcde":
        graph.add_node(label)
    graph.add_edge(0, 1, "x")  # e0: a -> b
    graph.add_edge(1, 2, "x")  # e1: b -> c
    graph.add_edge(2, 0, "x")  # e2: c -> a
    graph.add_edge(3, 1, "x")  # e3: d -> b
    facts = checker.GraphFacts(graph)
    sets = [{0}, {2}]
    good = Tree(frozenset({0, 1}), frozenset({0, 1, 2}), (0, 2))
    expect(checker.check_tree(facts, good, sets, max_edges=2, uni=True) == [], "a valid path was rejected")
    broken = {
        "cycle": Tree(frozenset({0, 1, 2}), frozenset({0, 1, 2}), (0, 2)),
        "non-seed leaf": Tree(frozenset({0, 1, 3}), frozenset({0, 1, 2, 3}), (0, 2)),
        "missing edge": Tree(frozenset({0, 9}), frozenset({0, 1, 2}), (0, 2)),
        "seed outside its set": Tree(frozenset({0}), frozenset({0, 1}), (0, 1)),
        "two roots under UNI": Tree(frozenset({0, 3}), frozenset({0, 1, 3}), (0, 3)),
        "nodes differ from edges": Tree(frozenset({0}), frozenset({0, 1, 4}), (0, 1)),
    }
    for name, tree in broken.items():
        seed_sets = [{0}, {tree.seeds[1]}] if name != "seed outside its set" else sets
        problems = checker.check_tree(facts, tree, seed_sets, max_edges=3, uni=True)
        expect(problems != [], f"the checker accepted a tree with a {name}")
    expect(checker.check_tree(facts, good, sets, max_edges=1) != [], "the checker ignored MAX")
    facts.add_edges([(3, 4, "y")], [4], generation=7)
    late = Tree(frozenset({4}), frozenset({3, 4}), (3, 4))
    expect(checker.check_tree(facts, late, [{3}, {4}], generation=6) != [], "an edge from a later generation passed")
    expect(checker.check_tree(facts, late, [{3}, {4}], generation=7) == [], "an ingested edge was rejected")
    expect(facts.distance(0, 4, 4) == 3 and facts.distance(0, 4, 2) is None, "the checker's BFS is wrong")

    dataset = cdf_graph(4, 6, 3, m=2, seed=5)
    result = evaluate_query(dataset.graph, cdf_query(2, "UNI"))
    cdf_facts = checker.GraphFacts(dataset.graph)
    expect(checker.check_cdf_rows(cdf_facts, 2, True, result.rows, dataset.links) == [], "valid UNI rows rejected")
    expect(
        checker.check_cdf_rows(cdf_facts, 2, True, result.rows[1:], dataset.links) != [],
        "a missing planted link passed",
    )


def run_workload(name: str, trace: bool, seed: int = 3) -> dict:
    import importlib

    problems: list = []
    result = importlib.import_module(name.replace("-", "_")).run(seed, 1.0, trace, problems)
    expect(result["failed"] == 0, f"{name} (trace={trace}) failed: {problems[:3]}")
    expect(result["attempted"] > 0, f"{name} attempted nothing")
    return result["metrics"]


def main() -> int:
    if not os.path.isdir(os.path.join("src", "repro")):
        print("selftest.py: run from the root of a checkout", file=sys.stderr)
        return 2
    run.pin_environment()
    import tempfile

    tempfile.tempdir = run.TEMP_DIR
    sys.path.insert(0, os.path.abspath("src"))
    import measure

    shrink()
    test_checker()
    print("checker: ok")
    for workload in run.WORKLOADS:
        metrics = run_workload(workload, trace=False)
        expect(set(metrics) == set(measure.END_TO_END), f"{workload}: end-to-end metrics missing")
        expect(all(m["value"] > 0 for m in metrics.values()), f"{workload}: a metric reads 0: {metrics}")
        first = run_workload(workload, trace=True)
        second = run_workload(workload, trace=True)
        expect(set(first) == set(measure.PER_LAYER), f"{workload}: per-layer metrics missing")
        differ = {k: (first[k]["value"], second[k]["value"]) for k in COUNTS if first[k] != second[k]}
        expect(not differ, f"{workload}: counts differ between two traced runs: {differ}")
        print(f"{workload}: ok (zobrist codes per search {first['ctp.zobrist_codes']['value']:.0f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
