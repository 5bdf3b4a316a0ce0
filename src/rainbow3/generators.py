"""Deterministic constructors for every graph family the test corpus and
the extremal examples use: basic families, the block-chain lower-bound
construction, threshold/chain/windmill instances and seeded random graphs
with a minimum-degree floor."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .graphs import Graph, GraphError, build_graph


@dataclass(frozen=True)
class FamilyGraph:
    """A generated graph together with the labeled-vertex map tests address
    structure through."""

    graph: Graph
    labels: dict


def complete_graph(n: int) -> Graph:
    return build_graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(s: int, t: int) -> Graph:
    if s < 0 or t < 0:
        raise GraphError(f"complete bipartite needs s, t >= 0, got s={s} t={t}")
    return build_graph(s + t, ((i, s + j) for i in range(s) for j in range(t)))


def path_graph(n: int) -> Graph:
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return build_graph(n, ((0, i) for i in range(1, n)))


def gstar(delta: int, m: int) -> FamilyGraph:
    """Chain of m cliques on delta+1 vertices between two end cliques on
    delta+2 vertices, bridged through vertices 2 and 1 of consecutive
    blocks, with the internal edge between vertices 1 and 2 of every block
    deleted.  Minimum degree delta; the diameter grows linearly in m."""
    if delta < 3:
        raise GraphError(f"gstar needs delta >= 3, got {delta}")
    if m < 0:
        raise GraphError(f"gstar needs m >= 0, got {m}")
    sizes = [delta + 2] + [delta + 1] * m + [delta + 2]
    starts = []
    total = 0
    for size in sizes:
        starts.append(total)
        total += size
    labels: dict = {}
    edges: list[tuple[int, int]] = []
    for block, size in enumerate(sizes):
        base = starts[block]
        for j in range(size):
            labels[f"x{block}_{j + 1}"] = base + j
        for a, b in itertools.combinations(range(size), 2):
            if (a, b) == (0, 1):
                continue  # the deleted x_{i,1} x_{i,2} edge
            edges.append((base + a, base + b))
    for block in range(len(sizes) - 1):
        edges.append((labels[f"x{block}_2"], labels[f"x{block + 1}_1"]))
    graph = build_graph(total, edges)
    return FamilyGraph(graph, labels)


def threshold_example(t: int) -> FamilyGraph:
    """t degree-3 vertices all adjacent to a common triangle: x1..xt each
    joined to y1,y2,y3, and the y's mutually adjacent.  Reproduced by
    weights 1 on the y's, 0 elsewhere, threshold 1."""
    if t < 1:
        raise GraphError(f"threshold example needs t >= 1, got {t}")
    labels = {f"x{i + 1}": i for i in range(t)}
    for j in range(3):
        labels[f"y{j + 1}"] = t + j
    edges = [(t, t + 1), (t, t + 2), (t + 1, t + 2)]
    edges.extend((i, t + j) for i in range(t) for j in range(3))
    graph = build_graph(t + 3, edges)
    return FamilyGraph(graph, labels)


def chain_example(k: int, t: int) -> FamilyGraph:
    """Bipartite graph with nested neighborhoods: a1..a_{k-3} see only
    b1,b2,b3 while the last three a's see all of b1..bt."""
    if k < 4 or t < 4:
        raise GraphError(f"chain example needs k,t >= 4, got k={k} t={t}")
    labels = {f"a{i + 1}": i for i in range(k)}
    labels.update({f"b{j + 1}": k + j for j in range(t)})
    edges = []
    for i in range(k - 3):
        edges.extend((i, k + j) for j in range(3))
    for i in range(k - 3, k):
        edges.extend((i, k + j) for j in range(t))
    graph = build_graph(k + t, edges)
    return FamilyGraph(graph, labels)


def french_windmill(t: int) -> FamilyGraph:
    """t copies of K4 sharing the single hub v0; block i lives on
    {v0, ui, vi, wi}."""
    if t < 1:
        raise GraphError(f"windmill needs t >= 1, got {t}")
    labels = {"v0": 0}
    edges = []
    for i in range(t):
        u, v, w = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        labels[f"u{i + 1}"], labels[f"v{i + 1}"], labels[f"w{i + 1}"] = u, v, w
        edges.extend([(0, u), (0, v), (0, w), (u, v), (u, w), (v, w)])
    graph = build_graph(3 * t + 1, edges)
    return FamilyGraph(graph, labels)


def random_min_degree(n: int, delta: int, seed: int) -> Graph:
    """Seeded connected graph with minimum degree >= delta.

    A random spanning tree is augmented by random edges at every deficient
    vertex, each drawn uniformly from the vertices outside its closed
    neighborhood; byte-identical for a fixed seed."""
    if delta < 0:
        raise GraphError(f"random graph needs delta >= 0, got {delta}")
    if n < delta + 1:
        raise GraphError(f"need n >= delta+1, got n={n} delta={delta}")
    rng = random.Random(seed)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        nbrs[a].add(b)
        nbrs[b].add(a)
    for v in range(n):
        while len(nbrs[v]) < delta:
            free = n - 1 - len(nbrs[v])  # >= n - delta >= 1
            # the k-th vertex, ascending, outside N[v]
            w = rng.choice(range(free))
            for u in sorted(nbrs[v] | {v}):
                if u > w:
                    break
                w += 1
            nbrs[v].add(w)
            nbrs[w].add(v)
    return build_graph(n, ((v, w) for v in range(n) for w in nbrs[v] if v < w))
