"""Independent output checker for the benchmark.

Shares no code with ``repro.ctp`` or ``repro.query``: it copies the graph's
edge list once (ids, endpoints, labels, node types) and checks every
answer against that copy with its own BFS, leaf, cycle and direction
tests.  Trees are read only through their public fields (``edges``,
``nodes``, ``seeds``).  Every check returns a list of problem strings; an
empty list means the answer is correct.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


class GraphFacts:
    """The checker's own copy of a graph: edges, node types and labels.

    ``add_edges`` appends ingested edges together with the generation the
    ingest reported, so a tree answered at generation ``g`` may only use
    edges that existed at ``g``.
    """

    def __init__(self, graph) -> None:
        self.source: List[int] = []
        self.target: List[int] = []
        self.label: List[str] = []
        for edge in graph.edges():
            self.source.append(edge.source)
            self.target.append(edge.target)
            self.label.append(edge.label)
        self.types: List[frozenset] = [frozenset(node.types) for node in graph.nodes()]
        #: (generation, number of edges visible from that generation on)
        self._horizons: List[Tuple[int, int]] = [(-1, len(self.source))]
        self._adjacency: Optional[List[List[int]]] = None

    def add_edges(self, edges: Sequence[Tuple[int, int, str]], edge_ids: Sequence[int], generation: int) -> List[str]:
        """Log one ingest batch; returns problems if the ids are not dense."""
        problems = []
        for (source, target, label), edge_id in zip(edges, edge_ids):
            if edge_id != len(self.source):
                problems.append(f"ingest assigned edge id {edge_id}, expected {len(self.source)}")
            self.source.append(source)
            self.target.append(target)
            self.label.append(label)
            if self._adjacency is not None:
                self._adjacency[source].append(target)
                self._adjacency[target].append(source)
        self._horizons.append((generation, len(self.source)))
        return problems

    def visible_edges(self, generation: Optional[int]) -> int:
        """Number of edges (a prefix of ids) that exist at ``generation``."""
        if generation is None:
            return len(self.source)
        count = self._horizons[0][1]
        for gen, total in self._horizons[1:]:
            if gen <= generation:
                count = total
        return count

    def edges_with_label(self, label: str) -> Iterable[int]:
        return (e for e, lab in enumerate(self.label) if lab == label)

    def distance(self, a: int, b: int, limit: int) -> Optional[int]:
        """Undirected hop distance from ``a`` to ``b`` if at most ``limit``.

        Bidirectional BFS, one level of the smaller frontier at a time, so
        a pair near a hub does not sweep the whole graph.
        """
        if self._adjacency is None:
            adjacency: List[List[int]] = [[] for _ in self.types]
            for source, target in zip(self.source, self.target):
                adjacency[source].append(target)
                adjacency[target].append(source)
            self._adjacency = adjacency
        if a == b:
            return 0
        sides = [({a: 0}, [a]), ({b: 0}, [b])]
        depth = 0
        while depth < limit:
            side = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
            seen, frontier = sides[side]
            other_seen = sides[1 - side][0]
            next_frontier = []
            for node in frontier:
                for neighbour in self._adjacency[node]:
                    if neighbour in other_seen:
                        return seen[node] + 1 + other_seen[neighbour]
                    if neighbour not in seen:
                        seen[neighbour] = seen[node] + 1
                        next_frontier.append(neighbour)
            if not next_frontier:
                return None
            sides[side] = (seen, next_frontier)
            depth += 1
        return None


def check_tree(
    facts: GraphFacts,
    tree,
    seed_sets: Sequence[Optional[Set[int]]],
    max_edges: Optional[int] = None,
    uni: bool = False,
    generation: Optional[int] = None,
) -> List[str]:
    """Definition 2.8 / 2.10 checks on one connecting tree.

    ``seed_sets[i]`` is the set the i-th seed must come from, or ``None``
    for a wildcard (N) set whose match is any tree node.
    """
    problems: List[str] = []
    edges = sorted(tree.edges)
    visible = facts.visible_edges(generation)
    for edge in edges:
        if not 0 <= edge < visible:
            return [f"edge {edge} does not exist at generation {generation} ({visible} edges)"]
    ends = set()
    for edge in edges:
        ends.add(facts.source[edge])
        ends.add(facts.target[edge])
    nodes = set(tree.nodes)
    if edges and ends != nodes:
        problems.append(f"tree nodes {sorted(nodes)} differ from its edge endpoints {sorted(ends)}")
    if not edges and len(nodes) != 1:
        problems.append(f"edgeless tree must be a single node, got {sorted(nodes)}")
    if max_edges is not None and len(edges) > max_edges:
        problems.append(f"tree has {len(edges)} edges, MAX is {max_edges}")
    # one connected acyclic component: |N| = |E| + 1 and union-find merges
    # every edge without closing a cycle
    parent = {node: node for node in nodes}

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for edge in edges:
        a, b = find(facts.source[edge]), find(facts.target[edge])
        if a == b:
            problems.append(f"edge {edge} closes a cycle")
            break
        parent[a] = b
    if len(nodes) != len(edges) + 1:
        problems.append(f"{len(nodes)} nodes and {len(edges)} edges is not a tree")
    seeds = tuple(tree.seeds)
    if len(seeds) != len(seed_sets):
        return problems + [f"tree has {len(seeds)} seeds for {len(seed_sets)} seed sets"]
    for position, (seed, allowed) in enumerate(zip(seeds, seed_sets)):
        if allowed is None:
            continue
        if seed not in nodes:
            problems.append(f"seed {seed} of set {position} is not in the tree")
        if seed not in allowed:
            problems.append(f"seed {seed} is not a member of seed set {position}")
    degree: Counter = Counter()
    indegree: Counter = Counter()
    for edge in edges:
        degree[facts.source[edge]] += 1
        degree[facts.target[edge]] += 1
        indegree[facts.target[edge]] += 1
    leaves = [node for node, d in degree.items() if d == 1]
    explicit = {seed for seed, allowed in zip(seeds, seed_sets) if allowed is not None}
    wildcards = sum(1 for allowed in seed_sets if allowed is None)
    free = [leaf for leaf in leaves if leaf not in explicit]
    if len(free) > wildcards:
        problems.append(f"leaves {sorted(free)} are not seed nodes")
    if uni and edges:
        if any(count > 1 for count in indegree.values()):
            problems.append("UNI tree has a node with two incoming edges (no single root)")
    return problems


def check_cdf_rows(facts: GraphFacts, m: int, uni: bool, rows, links) -> List[str]:
    """Rows of the CDF query (Section 5.3) against the planted links.

    Each row is ``(?v, ?tl, ?l)``.  The BGP bindings are re-derived here:
    ``?tl`` is a ``c``-target, ``?v`` has ``g`` (and for m=3 ``h``) edges to
    the tree's bottom seeds.  UNI answers must equal the planted links
    exactly; bidirectional answers must contain every one of them.
    """
    problems: List[str] = []
    c_targets = {facts.target[e] for e in facts.edges_with_label("c")}
    out_by_label: Dict[str, Set[Tuple[int, int]]] = {"g": set(), "h": set()}
    for label in ("g", "h"):
        for e in facts.edges_with_label(label):
            out_by_label[label].add((facts.source[e], facts.target[e]))
    g_targets = {t for _, t in out_by_label["g"]}
    h_targets = {t for _, t in out_by_label["h"]}
    planted_trees: Counter = Counter()
    for v, tl, tree in rows:
        if m == 2:
            seed_sets = [g_targets, c_targets]
            bl = tree.seeds[0]
            if tree.seeds[1] != tl:
                problems.append(f"row ?tl={tl} but tree seed is {tree.seeds[1]}")
            if (v, bl) not in out_by_label["g"]:
                problems.append(f"no edge ({v} g {bl}) for row")
            key = (tree.seeds[1], bl)
        else:
            seed_sets = [c_targets, g_targets, h_targets]
            if tree.seeds[0] != tl:
                problems.append(f"row ?tl={tl} but tree seed is {tree.seeds[0]}")
            if (v, tree.seeds[1]) not in out_by_label["g"] or (v, tree.seeds[2]) not in out_by_label["h"]:
                problems.append(f"no edges ({v} g {tree.seeds[1]}) and ({v} h {tree.seeds[2]}) for row")
            key = tuple(tree.seeds)
        if tl not in c_targets:
            problems.append(f"?tl={tl} is not the target of a c edge")
        problems.extend(check_tree(facts, tree, seed_sets, uni=uni))
        if all(facts.label[e] == "link" for e in tree.edges):
            planted_trees[key] += 1
        if problems:
            return problems
    planted = Counter(tuple(link) for link in links)
    if uni:
        if len(rows) != len(links) or planted_trees != planted:
            problems.append(
                f"UNI answers ({len(rows)} rows, link trees {dict(planted_trees)}) "
                f"differ from the planted links {dict(planted)}"
            )
    else:
        missing = planted - planted_trees
        if missing:
            problems.append(f"planted links missing from the answers: {dict(missing)}")
    return problems


def _typed(facts: GraphFacts, type_name: str) -> Set[int]:
    return {n for n, types in enumerate(facts.types) if type_name in types}


def check_table1_rows(facts: GraphFacts, name: str, rows, max_edges: int) -> List[str]:
    """Rows of the J1-J3 queries of Table 1 (``repro.workloads.realworld``)."""
    problems: List[str] = []
    persons = _typed(facts, "person")
    pairs: Dict[str, Set[Tuple[int, int]]] = {}
    for label in ("linksTo", "locatedIn", "created"):
        pairs[label] = {(facts.source[e], facts.target[e]) for e in facts.edges_with_label(label)}
    everything = set(range(len(facts.types)))
    linkers = {s for s, _ in pairs["linksTo"]}
    creators = {s for s, _ in pairs["created"]}
    works = _typed(facts, "work")
    events = _typed(facts, "event")
    for row in rows:
        if name == "J1":
            p, o, pl, l1, l2 = row
            if (p, o) not in pairs["linksTo"] or (o, pl) not in pairs["locatedIn"]:
                problems.append(f"J1 row ({p}, {o}, {pl}) does not match its triple patterns")
            if p not in persons:
                problems.append(f"J1 ?p={p} is not a person")
            if tuple(l1.seeds) != (p, pl) or tuple(l2.seeds) != (p, o, pl):
                problems.append("J1 tree seeds differ from the row bindings")
            problems.extend(check_tree(facts, l1, [{p}, {pl}], max_edges))
            problems.extend(check_tree(facts, l2, [{p}, {o}, {pl}], max_edges))
        elif name == "J2":
            p, w, tree = row
            if p not in linkers or w not in creators:
                problems.append(f"J2 row ({p}, {w}) does not match its triple patterns")
            if p not in persons or w not in works:
                problems.append(f"J2 row ({p}, {w}) fails its type filters")
            if tuple(tree.seeds) != (p, w):
                problems.append("J2 tree seeds differ from the row bindings")
            problems.extend(check_tree(facts, tree, [{p}, {w}], max_edges))
        else:  # J3: CONNECT(?e, *) with type(?e) = "event"
            e, tree = row
            if e not in events:
                problems.append(f"J3 ?e={e} is not an event")
            if tree.seeds[0] != e:
                problems.append("J3 tree seed differs from ?e")
            problems.extend(check_tree(facts, tree, [everything, None], max_edges))
        if problems:
            return problems
    return problems


def check_connect_rows(
    facts: GraphFacts,
    source: int,
    target: int,
    rows,
    max_edges: int,
    limit: int,
    generation: Optional[int] = None,
) -> List[str]:
    """Rows ``(?w,)`` of ``CONNECT("a", "b") AS ?w MAX k LIMIT n``."""
    problems: List[str] = []
    if len(rows) > limit:
        problems.append(f"{len(rows)} rows exceed LIMIT {limit}")
    for (tree,) in rows:
        problems.extend(check_tree(facts, tree, [{source}, {target}], max_edges, generation=generation))
        if problems:
            return problems
    return problems


def tree_key(tree) -> Tuple:
    """Order-free identity of an answer tree, for differential comparison."""
    return (tuple(sorted(tree.edges)), tuple(tree.seeds))
