"""Graph core: canonical edge lists, BFS trees with the level structure
the colorings rely on, shortest-path tables and 3-terminal Steiner
distances.

A Graph is immutable: frozen, with tuple adjacency and a frozenset of
edges, so shared graphs are safe to use concurrently.  A BfsTree is frozen
but holds plain dicts and lists, which callers must not mutate.  No
function here modifies its arguments.
"""
from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Malformed graph input or an unmet structural precondition."""


class LimitError(RuntimeError):
    """A search, verifier or solver was asked to exceed its configured limit."""


# rings of at most this many vertices are peeled bit by bit in _distance_rows
RING_PEEL_MAX = 6
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with canonical adjacency."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...] = field(repr=False)
    edge_set: frozenset = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min(set(map(len, self.adj)), default=0)  # few distinct degrees: a cheap min

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_set


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical Graph, collapsing duplicate edges.

    Rejects self-loops and out-of-range endpoints, naming the offending
    pair.  The adjacency order is deterministic (ascending), so the result
    does not depend on the order of ``edge_list``.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        seen.add(edge_key(u, v))
    edges = tuple(sorted(seen))
    adj_lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj_lists[u].append(v)
        adj_lists[v].append(u)
    adj = tuple(tuple(sorted(a)) for a in adj_lists)
    return Graph(n=n, edges=edges, adj=adj, edge_set=frozenset(edges))


def vertex_set(g: Graph, verts: Iterable[int]) -> frozenset:
    """``verts`` as a frozenset, after checking in one pass that each member is
    an int (not a bool) in range(g.n); a one-line GraphError names a member
    that is not, unhashable ones included."""
    n = g.n
    members = verts if isinstance(verts, (set, frozenset)) else tuple(verts)
    for v in members:
        if type(v) is not int or not 0 <= v < n:
            raise GraphError(f"vertex {v!r} is not a vertex of g (n={n})")
    return frozenset(members)


def induced_subgraph(g: Graph, verts: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``verts`` relabeled 0..k-1; returns (graph, new->old map)."""
    order = sorted(vertex_set(g, verts))
    index = {v: i for i, v in enumerate(order)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return build_graph(len(order), edges), order


def _components(g: Graph, mark: bytearray) -> Iterator[list[int]]:
    """Components of the subgraph induced on the vertices ``mark`` leaves 0,
    smallest vertex first, each a list in BFS order; reached vertices are set to 1."""
    adj = g.adj
    s = mark.find(0)
    while s >= 0:
        mark[s] = 1
        comp = [s]
        for u in comp:
            for w in adj[u]:
                if not mark[w]:
                    mark[w] = 1
                    comp.append(w)
        yield comp
        s = mark.find(0, s + 1)


def is_connected(g: Graph, within: Iterable[int] | None = None) -> bool:
    """Connectivity of g, or of its subgraph induced on ``within`` (vertices of g)."""
    if within is None:
        mark = bytearray(g.n)
    else:
        mark = bytearray(b"\x01") * g.n
        for v in vertex_set(g, within):
            mark[v] = 0
    comps = _components(g, mark)
    return next(comps, None) is None or next(comps, None) is None  # at most one


def components_minus(g: Graph, dom: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of G - D, each a sorted vertex tuple, in
    smallest-vertex order."""
    mark = bytearray(g.n)
    for v in vertex_set(g, dom):
        mark[v] = 1
    return [tuple(sorted(comp)) for comp in _components(g, mark)]


@dataclass(frozen=True)
class BfsTree:
    """Rooted BFS tree of one component, with the data the periodic
    coloring consumes: heights, parents, visitation order, first level and
    first-level-ancestor labels.

    ``first_level`` lists the root's children in visitation order; its last
    entry is the distinguished vertex whose subtree is the unique type-II
    subtree.  ``pi`` maps every non-root vertex to its first-level ancestor.
    """

    root: int
    order: tuple[int, ...]
    parent: dict
    height: dict
    children: dict
    first_level: tuple[int, ...]
    pi: dict


def bfs_tree(g: Graph, component: Iterable[int], root: int) -> BfsTree:
    """BFS tree of a connected component, visiting neighbors in ascending id."""
    comp = vertex_set(g, component)
    if root not in comp:
        raise GraphError(f"root {root} not in component")
    adj = g.adj
    parent: dict = {root: None}
    height = {root: 0}
    children: dict = {root: []}
    order = [root]
    for u in order:  # the list is the BFS queue
        hw, kids = height[u] + 1, children[u]
        for w in adj[u]:
            if w in comp and w not in parent:
                parent[w] = u
                height[w] = hw
                children[w] = []
                kids.append(w)
                order.append(w)
    if len(order) != len(comp):
        raise GraphError("graph must be connected")
    first_level = tuple(children[root])
    pi = dict(zip(first_level, first_level))
    for v in order[len(first_level) + 1:]:
        pi[v] = pi[parent[v]]
    return BfsTree(
        root=root,
        order=tuple(order),
        parent=parent,
        height=height,
        children=children,
        first_level=first_level,
        pi=pi,
    )


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from source; -1 marks unreachable vertices."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _ball_table(g: Graph) -> list[list[int]]:
    """``balls[v][r]``: bitmask of the vertices within distance r of v, for
    r = 0..ecc(v), grown level by level as ball(v, r) | OR of ball(u, r) over
    the neighbors u; a ball that stops growing is v's whole component.
    Raises naming two unreachable vertices."""
    n = g.n
    adj = g.adj
    cur = [1 << v for v in range(n)]
    balls = [[b] for b in cur]
    growing = range(n)
    while growing:
        nxt = cur[:]
        still = []
        for v in growing:
            b = cur[v]
            for u in adj[v]:
                b |= cur[u]
            if b != cur[v]:
                nxt[v] = b
                balls[v].append(b)
                still.append(v)
        cur, growing = nxt, still
    for v, b in enumerate(cur):
        if b != (1 << n) - 1:
            u = next(u for u in range(n) if not b >> u & 1)
            raise GraphError(f"graph is disconnected: no path between {v} and {u}")
    return balls


def _distance_rows(balls: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Distance rows read off the rings ``ball(v, r) & ~ball(v, r-1)``.

    A ring at r < 256 of more than ``RING_PEEL_MAX`` vertices is written in
    one step: its bits become a 0/1 byte string, times r, added to a row of
    byte lanes (r < 256 fits a lane, and rings are disjoint, so no lane
    carries).  Smaller rings, and every ring at r >= 256, are peeled one bit
    at a time into the row built from those lanes.
    """
    n = len(balls)
    fmt = f"0{n}b"
    peel_max = RING_PEEL_MAX
    rows = []
    for levels in balls:
        lanes = 0
        small = []
        prev = levels[0]  # v itself, at distance 0
        for r in range(1, len(levels)):
            b = levels[r]
            ring = b ^ prev
            prev = b
            if ring.bit_count() > peel_max and r < 256:
                # format puts vertex k at byte k from the low end
                lanes += r * int.from_bytes(format(ring, fmt).encode().translate(_ZERO_ONE), "big")
            else:
                small.append((r, ring))
        row = list(lanes.to_bytes(n, "little"))
        for r, ring in small:
            while ring:
                low = ring & -ring
                row[low.bit_length() - 1] = r
                ring ^= low
        rows.append(tuple(row))
    return tuple(rows)


def diameter(g: Graph) -> int:
    """Largest eccentricity; raises on an empty or disconnected graph."""
    balls = _ball_table(g)
    if not balls:
        raise GraphError("diameter needs at least 1 vertex, got n=0")
    return max(map(len, balls)) - 1


def three_terminals(g: Graph, s: Iterable[int]) -> list[int]:
    """The 3-set ``s`` of vertices of g, ascending; a one-line GraphError if not."""
    terms = sorted(vertex_set(g, s))
    if len(terms) != 3:
        raise GraphError(f"need exactly 3 distinct vertices of g, got {terms}")
    return terms


def steiner_distance3(g: Graph, s: Iterable[int]) -> int:
    """Minimum size (edge count) of a tree containing the 3-vertex set ``s``.

    For three terminals an optimal Steiner tree is three shortest paths
    meeting at one median vertex, so the minimum over all vertices m of
    d(m,s1)+d(m,s2)+d(m,s3) is exact.
    """
    terms = three_terminals(g, s)
    dists = [bfs_distances(g, t) for t in terms]
    best = None
    for m in range(g.n):
        if any(d[m] < 0 for d in dists):
            continue
        total = dists[0][m] + dists[1][m] + dists[2][m]
        if best is None or total < best:
            best = total
    if best is None:
        raise GraphError(f"terminals {terms} are not connected")
    return best


def sdiam3_with_triple(g: Graph) -> tuple[int, tuple[int, int, int]]:
    """(max Steiner distance over all triples, lexicographically first argmax).

    Triples are visited in lexicographic order and ``best`` only moves on a
    strict increase.  A triple is skipped, without its median minimum, when
    its median sum at some vertex is already <= ``best``.  With ball(v, r)
    the vertices within distance r of v, and h the last median that ruled
    out a triple, the sums tried are:

    - at a or b for the whole pair, dab + min(ecc(a), ecc(b)); every b in
      ball(a, best - ecc(a)) fails it;
    - at h for the whole pair, da[h] + dbh + ecc(h); every b in
      ball(h, best - da[h] - ecc(h)) fails it, dropped from a's pairs at
      a's start and whenever h moves;
    - at a, b or h, for every c in ball(a, best - dab), ball(b, best - dab)
      or ball(h, best - da[h] - db[h]), dropped by one mask per pair;
    - for each c left, at whichever terminal joins the two shorter sides,
      dab + dac + dbc - max(dab, dac, dbc), and at h.

    The median sums of a surviving triple are added in one integer: each
    row is packed into lanes of w bytes, w the smallest width with
    3 * max ecc < 256**w, so no lane carries into the next.  On 1-byte
    lanes the minimum is the first value from half the perimeter
    (dab + dac + dbc) up that ``bytes.find`` meets, and its first index is
    where it meets it; wider lanes are unpacked into an array for ``min``
    and ``.index``.

    A skipped triple could never have passed the strict update, so the
    value and the first argmax are exactly those of the full scan
    (DECISIONS.md entry 5).
    """
    if g.n < 3:
        raise GraphError(f"sdiam3 needs at least 3 vertices, got n={g.n}")
    balls = _ball_table(g)
    dist = _distance_rows(balls)
    n = g.n
    ecc = [len(levels) - 1 for levels in balls]
    top = 3 * max(ecc)  # the largest median sum a lane must hold
    tc = "B" if top < 256 else "H" if top < 65536 else "L"
    order, nbytes = sys.byteorder, n * array(tc).itemsize
    lanes = [int.from_bytes(bytes(row) if tc == "B" else array(tc, row), order) for row in dist]
    full = (1 << n) - 1
    best = -1
    best_triple = (0, 1, 2)
    h = 0
    for a in range(n - 2):
        da, ba, ea = dist[a], balls[a], ecc[a]
        r = best - ea
        pairs = full >> (a + 1) << (a + 1) & ~(ba[min(r, ea)] if r >= 0 else 0)
        r = best - da[h] - ecc[h]
        if r >= 0:
            pairs &= ~balls[h][min(r, ecc[h])]
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            b = low.bit_length() - 1
            db = dist[b]
            dab = da[b]
            if dab + min(ea, ecc[b]) <= best:
                continue
            sab_h, dh = da[h] + db[h], dist[h]
            # the pair bound keeps best - dab below ecc(a) and ecc(b)
            r = best - dab
            drop = ba[r] | balls[b][r] if r >= 0 else 0
            r = best - sab_h
            if r >= 0:
                drop |= balls[h][min(r, ecc[h])]
            cand = full >> (b + 1) << (b + 1) & ~drop
            sab = None
            while cand:
                low = cand & -cand
                cand ^= low
                c = low.bit_length() - 1
                dac, dbc = da[c], db[c]
                if dab + dac + dbc - max(dab, dac, dbc) <= best or sab_h + dh[c] <= best:
                    continue
                if sab is None:
                    sab = lanes[a] + lanes[b]
                sums = (sab + lanes[c]).to_bytes(nbytes, order)
                if tc == "B":
                    # no median sum is below half the perimeter
                    val = (dab + dac + dbc + 1) // 2
                    m = sums.find(val)
                    while m < 0:
                        val += 1
                        m = sums.find(val)
                else:
                    sums = array(tc, sums)
                    val = min(sums)
                    m = sums.index(val)
                if val > best:
                    best = val
                    best_triple = (a, b, c)
                else:
                    h = m
                    sab_h, dh = da[h] + db[h], dist[h]
                    r = best - da[h] - ecc[h]
                    if r >= 0:
                        pairs &= ~balls[h][min(r, ecc[h])]
    return best, best_triple


def sdiam3(g: Graph) -> int:
    """Maximum Steiner distance over all 3-vertex sets."""
    return sdiam3_with_triple(g)[0]


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-indexed);
# everything after '#' on a line is a comment.

def read_edge_list(text: str) -> Graph:
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if len(tokens) < 2:
        raise GraphError("edge list needs a header line 'n m'")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise GraphError(f"bad header {tokens[:2]!r}: {exc}") from None
    rest = tokens[2:]
    if len(rest) != 2 * m:
        raise GraphError(f"expected {2 * m} endpoint tokens for m={m}, got {len(rest)}")
    try:
        pairs = [(int(rest[2 * i]), int(rest[2 * i + 1])) for i in range(m)]
    except ValueError as exc:
        raise GraphError(f"bad edge token: {exc}") from None
    return build_graph(n, pairs)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
