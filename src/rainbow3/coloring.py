"""Constructive 3-rainbow colorings driven by strengthened dominating sets.

Two schemes are built here.  The 3-extra-color scheme colors the legs of
every outside vertex 1/2/3 and needs a connected 3-dominating set.  The
6-extra-color scheme needs only a connected three-way dominating set and
runs in two stages per component of G-D: a periodic coloring over the BFS
tree, which also certifies each leaf that owns a spare leg into D, then a
sequential repair pass that colors one chosen edge per still dangerous leaf
(recoloring at most that leaf's own leg) until every outside vertex carries
three internally disjoint super-rainbow paths into D.

Colorings of distinct components never interact, so components could be
processed concurrently; within one component the repair pass is strictly
sequential.  The stage functions update a mutable Stage1State in place;
returned colorings hold plain dicts, which callers must not mutate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Sequence

from .domination import (
    DominatingSet,
    DominationError,
    DominationKind,
    check_domination,
    k_dominating,
    k_way,
)
from .graphs import (
    BfsTree,
    Graph,
    GraphError,
    LimitError,
    bfs_tree,
    build_graph,
    components_minus,
    edge_key,
    induced_subgraph,
    vertex_set,
)
from .verify import (
    EdgeColoring,
    SafetyCertificate,
    certificate_colors,
    class_membership,
    exact_rx3_coloring,
)


class ColoringInternalError(RuntimeError):
    """A library bug: the repair-pass dispatcher hit a situation its tables
    rule out, or the final pass found a certificate missing, a re-walked one
    not verifying, or color sets outside the class table."""


@dataclass(frozen=True)
class ColoringReport:
    method: str
    n: int
    dom: tuple
    d: int
    num_colors: int
    inner_method: str
    components: int = 0
    stage2_steps: int = 0
    recolored: int = 0
    rule_keys: tuple = ()
    rewalked: int = 0


def _path_colors(colors: dict, path: tuple) -> frozenset:
    return frozenset([colors[(a, b) if a < b else (b, a)] for a, b in zip(path, path[1:])])


# ---------------------------------------------------------------------------
# Baseline: distinct colors down a spanning tree.

def spanning_tree_coloring(h: Graph) -> EdgeColoring:
    """The BFS tree edges from vertex 0 get distinct colors 1..n-1 in
    visitation order, every other edge reuses color 1.  Any triple is
    connected by a rainbow subtree of the spanning tree, so this is always a
    valid 3-rainbow coloring."""
    colors = _spanning_colors(h, range(h.n), 0)
    if colors is None:
        raise GraphError("graph must be connected")
    return EdgeColoring.from_dict(colors)


def _spanning_colors(g: Graph, verts: Sequence[int], offset: int) -> dict | None:
    """``spanning_tree_coloring`` of G[verts] shifted by offset, in g's labels, or None
    if G[verts] is disconnected: a BFS from min(verts), the first of the ascending
    ``verts``, has the order and parents of ``bfs_tree`` on the relabeled G[verts].
    Kept apart from ``bfs_tree`` for speed: reading these colorings off ``bfs_tree``
    made a construct-large op 0.6-0.7 ms slower (Python 3.11.7, 2-vCPU VM)."""
    adj, mark = g.adj, bytearray(g.n)
    for v in verts:
        mark[v] = 1
    colors: dict = {}
    queue = list(verts[:1])
    for u in queue:
        mark[u] = 2
        for w in adj[u]:
            if mark[w] == 1:
                mark[w] = 2
                colors[(u, w) if u < w else (w, u)] = offset + len(queue)
                queue.append(w)
    if len(queue) != len(verts):
        return None
    for u in verts:
        for w in adj[u]:
            if w > u and mark[w]:
                colors.setdefault((u, w), offset + 1)
    return colors


# ---------------------------------------------------------------------------
# Coloring the inside of D.

# G[D] is solved exactly up to this many vertices, within the solver's own
# limits; a spanning tree gives it n-1 colors, so the minimum is found.
INNER_EXACT_MAX_VERTICES = 8


def inner_coloring(g: Graph, dom: Iterable[int], offset: int) -> tuple[EdgeColoring, str]:
    """3-rainbow coloring of G[D] shifted to colors offset+1..offset+d.

    Solved to the exact minimum when G[D] is small enough, otherwise by the
    spanning-tree coloring with |D|-1 colors (which the additive set-size
    bounds rely on).  Returns (coloring, method)."""
    dverts = sorted(vertex_set(g, dom))
    if len(dverts) < 2:
        return EdgeColoring.from_dict({}), "empty"
    spanning = _spanning_colors(g, dverts, offset)
    if spanning is None:
        raise GraphError("G[D] is disconnected")
    if 3 <= len(dverts) <= INNER_EXACT_MAX_VERTICES:
        sub, back = induced_subgraph(g, dverts)
        try:
            solved = exact_rx3_coloring(sub)
        except LimitError:
            solved = None
        if solved is not None:
            shifted = {edge_key(back[u], back[v]): c + offset for (u, v), c in solved[1].items()}
            return EdgeColoring.from_dict(shifted), "exact"
    return EdgeColoring.from_dict(spanning), "spanning"


# ---------------------------------------------------------------------------
# The 3-extra-color scheme over a connected 3-dominating set.

def three_dom_coloring(g: Graph, dom) -> tuple[EdgeColoring, ColoringReport]:
    """Color one leg of every outside vertex 1, one 2 and the rest 3, give
    G[D] fresh colors 4..d+3, and color everything left 1.  Uses at most
    d+3 colors in total."""
    dset = _checked_dom(g, dom, k_dominating(3), "3-dominating")
    colors: dict = {}
    for v in range(g.n):
        if v in dset:
            continue
        _color_three_legs(colors, v, [w for w in g.adj[v] if w in dset])
    return _color_the_rest(g, dset, colors, "theorem4", offset=3)


def _color_the_rest(
    g: Graph, dset: frozenset, colors: dict, method: str, offset: int, **counts
) -> tuple[EdgeColoring, ColoringReport]:
    """The tail both schemes share: color G[D] by ``inner_coloring`` shifted by
    offset (which colors every edge of G[D]), every edge still uncolored 1, and
    report the coloring with the scheme's ``counts``."""
    inner, inner_method = inner_coloring(g, dset, offset)
    colors.update(inner.assignment)
    for e in g.edges:  # canonical keys
        if e not in colors:
            colors[e] = 1
    coloring = EdgeColoring.from_dict(colors)
    report = ColoringReport(
        method=method, n=g.n, dom=tuple(sorted(dset)), d=inner.num_colors,
        num_colors=coloring.num_colors, inner_method=inner_method, **counts,
    )
    return coloring, report


def _color_three_legs(colors: dict, v: int, ft: list) -> None:
    """Legs of v to its ascending feet ft get 1, 2, then 3 for the rest."""
    colors[edge_key(v, ft[0])] = 1
    colors[edge_key(v, ft[1])] = 2
    for w in ft[2:]:
        colors[edge_key(v, w)] = 3


def _checked_dom(g: Graph, dom, kind: DominationKind, name: str) -> frozenset:
    """D's vertices, once check_domination has found D a connected ``name`` set
    of g; it rejects any member that is not a vertex, unhashable ones included."""
    members = dom.vertices if isinstance(dom, DominatingSet) else tuple(dom)
    if not check_domination(g, members, kind):
        raise DominationError(f"D must be a connected {name} set")
    return frozenset(members)


# ---------------------------------------------------------------------------
# Stage 1 of the 6-extra-color scheme: the periodic coloring.
#
# (tree-edge color, leg color) by height mod 3.  Type II is the subtree of
# the last first-level vertex; all other subtrees are type I.  The root's
# leg gets 2, matching the h=0 column.

_TYPE_I_FE = {0: (6, 2), 1: (4, 1), 2: (5, 3)}
_TYPE_II_FE = {0: (4, 2), 1: (5, 3), 2: (6, 1)}


def _stage1_rows(fe: dict) -> tuple:
    """(tree-edge color, leg color, signature) by height mod 3.  A non-leaf's
    signature is its leg, the path through its parent (its tree edge and the
    parent's leg: the row above, or the root's 2, which is row 0's leg color)
    and the path through its first child (the child's tree edge and leg: the
    row below)."""
    return tuple(
        (f, e, (frozenset({e}), frozenset({f, fe[(h - 1) % 3][1]}), frozenset(fe[(h + 1) % 3])))
        for h, (f, e) in sorted(fe.items())
    )


STAGE1_ROWS = (_stage1_rows(_TYPE_I_FE), _stage1_rows(_TYPE_II_FE))  # indexed by "type II?"


@dataclass
class Stage1State:
    """Mutable per-component record threaded through the two stages.  A
    certificate is one record, its paths and their color sets as built; the
    root's sets are None, as stage 2 may reroute its second path."""

    tree: BfsTree
    leg: dict = field(default_factory=dict)         # vertex -> chosen foot
    colors: dict = field(default_factory=dict)      # the component's edge -> color map
    certs: dict = field(default_factory=dict)       # vertex -> (paths, color sets or None)
    dangerous: list = field(default_factory=list)   # uncertified stage-1 leaves
    recolored: set = field(default_factory=set)
    steps: list = field(default_factory=list)       # (leaf, rule key) per repair step


def stage1_periodic(g: Graph, dom: Container[int], tree: BfsTree) -> Stage1State:
    """Periodic coloring of the >=3-vertex component spanned by ``tree``.

    Colors every vertex's tree edge and one leg by the (subtree type,
    height mod 3) table, which certifies every non-leaf.  A leaf's spare leg,
    its first D-neighbor after its leg, gets the least color not on its leg
    or on its path through the parent, and certifies it with those two; a
    leaf with no spare leg is dangerous.  ``dom`` is used as given, only for
    membership tests."""
    if len(tree.order) < 3:
        raise GraphError("periodic stage needs a component with >= 3 vertices")
    if len(tree.first_level) < 2:
        raise GraphError("BFS root of a >=3-vertex component must have two component neighbors")
    state = Stage1State(tree=tree)
    adj, leg, colors, certs = g.adj, state.leg, state.colors, state.certs
    parent, height, pi, children = tree.parent, tree.height, tree.pi, tree.children
    root, order = tree.root, tree.order
    first, last = tree.first_level[0], tree.first_level[-1]
    for v in order:
        for w in adj[v]:
            if w in dom:
                leg[v] = w
                break
        else:
            raise DominationError(f"vertex {v} has no leg into D")
    x = leg[root]
    colors[(root, x) if root < x else (x, root)] = 2
    certs[root] = (((root, x), (root, first, leg[first]), (root, last, leg[last])), None)
    for v in order[1:]:
        f_col, e_col, signature = STAGE1_ROWS[pi[v] == last][height[v] % 3]
        p, x = parent[v], leg[v]
        colors[(v, p) if v < p else (p, v)] = f_col
        colors[(v, x) if v < x else (x, v)] = e_col
        kids = children[v]
        if kids:
            kid = kids[0]
            certs[v] = (((v, x), (v, p, leg[p]), (v, kid, leg[kid])), signature)
            continue
        for foot in adj[v]:
            if foot != x and foot in dom:
                break
        else:
            state.dangerous.append(v)
            continue
        # the leaf's leg and parent path have its row's first two sets (DECISIONS.md entry 13)
        leg_set, up, _ = signature
        col = min({1, 2, 3, 4} - leg_set - up)
        colors[(v, foot) if v < foot else (foot, v)] = col
        certs[v] = (((v, x), (v, foot), (v, p, leg[p])), (leg_set, frozenset((col,)), up))
    return state


def order_dangerous(a: Iterable[int], tree: BfsTree) -> list[int]:
    """Processing order for the still dangerous leaves: descending
    first-level index of the subtree, then ascending height, then BFS
    visitation order.  A vertex outside the tree, or its root, raises
    KeyError."""
    rank = {v: i for i, v in enumerate(tree.first_level)}
    pi, height = tree.pi, tree.height
    keys = {v: (-rank[pi[v]], height[v]) for v in a}
    return sorted((v for v in tree.order if v in keys), key=keys.__getitem__)


# ---------------------------------------------------------------------------
# Stage 2 dispatch tables.
#
# Key: (case, height mod 3, h(v) - h(w), was the target's leg recolored).
# Cases: the processed leaf sits under the last first-level vertex (cases 1
# and 2) or not (3 and 4), and the chosen edge leads into a type-I subtree
# (1 and 3) or only type-II targets exist (2 and 4).
#
# Row: color of the chosen edge wv; optional recolor of w's leg; the
# expected color-set triples of w and, when the row certifies it, of v,
# checked at runtime against the produced certificates.  A set's size fixes
# its path: two colors are x->y->leg, three are x->y->parent(y)->leg, where y
# is the parent of x for the second path and the other endpoint of wv for
# the third.


@dataclass(frozen=True)
class _Rule:
    edge_color: int
    recolor: int | None
    expect_wi: tuple
    expect_v: tuple | None


_RULES_SPEC = """
1 0  0 F  c5 -   2|14|356  2|36|145
1 0 +1 F  c5 -   2|346|15  1|346|25
1 1  0 F  c6 -   3|25|16   1|24|36
1 1 +1 F  c4 r6  6|25|34   3|15|46
1 2  0 F  c2 r4  4|36|125  3|15|24
1 2 +1 F  c5 -   1|36|25   2|36|15
2 0 -1 B  c5 -   2|14|356  -
2 0  0 F  c6 r5  5|14|26   2|14|56
2 0  0 T  c6 -   2|14|56   -
2 0 +1 F  c6 -   2|14|36   3|25|146
2 1 -1 B  c6 -   3|25|146  -
2 1  0 F  c4 r6  6|25|34   3|25|46
2 1  0 T  c4 -   3|25|46   -
2 1 +1 F  c4 -   3|25|14   1|36|245
2 2 -1 B  c4 -   1|36|245  -
2 2  0 F  c5 r4  4|36|15   1|36|45
2 2  0 T  c5 -   1|36|45   -
2 2 +1 F  c5 -   1|36|25   2|14|356
3 0 -1 B  c4 -   2|36|145  -
3 0  0 F  c5 r4  4|36|25   2|36|45
3 0  0 T  c5 -   2|36|45   -
3 0 +1 F  c5 -   2|36|15   1|24|356
3 1 -1 B  c5 -   1|24|356  -
3 1  0 F  c6 r5  5|24|16   1|24|56
3 1  0 T  c6 -   1|24|56   -
3 1 +1 F  c6 -   1|24|36   3|15|246
3 2 -1 B  c6 -   3|15|246  -
3 2  0 F  c4 r6  6|15|34   3|15|46
3 2  0 T  c4 -   3|15|46   -
3 2 +1 F  c4 -   3|15|24   2|36|145
4 0 -1 F  c5 -   2|36|15   -
4 0 -1 T  c5 -   2|36|45   -
4 0  0 F  c5 -   2|36|145  -
4 0  0 T  c4 -   2|36|45   -
4 1 -1 F  c5 -   1|346|25  -
4 1 -1 T  c6 -   1|24|56   -
4 1  0 F  c6 -   1|24|36   -
4 1  0 T  c3 -   1|24|36   -
4 2 -1 F  c4 r6  6|15|34   -
4 2 -1 T  c4 -   3|15|46   -
4 2  0 F  c3 r6  6|245|13  -
4 2  0 T  c6 -   3|15|46   -
"""


def _parse_sets(spec: str) -> tuple | None:
    if spec == "-":
        return None
    return tuple(frozenset(int(ch) for ch in part) for part in spec.split("|"))


def _load_rules() -> dict:
    rules: dict = {}
    for line in _RULES_SPEC.strip().splitlines():
        case, hmod, dh, flag, col, rec, exp_wi, exp_v = line.split()
        rule = _Rule(
            edge_color=int(col[1:]),
            recolor=None if rec == "-" else int(rec[1:]),
            expect_wi=_parse_sets(exp_wi),
            expect_v=_parse_sets(exp_v),
        )
        flags = (False, True) if flag == "B" else ((flag == "T"),)
        for f in flags:
            rules[(int(case), int(hmod), int(dh), f)] = rule
    return rules


STAGE2_RULES = _load_rules()


def _path(state: Stage1State, x: int, y: int, edges: int) -> tuple:
    """The certificate path x->y->leg of y (2 edges) or x->y->parent(y)->leg
    of parent(y) (3 edges)."""
    if edges == 2:
        return (x, y, state.leg[y])
    py = state.tree.parent[y]
    if py is None:
        raise ColoringInternalError(f"3-edge path from {x} through {y} runs past the root")
    return (x, y, py, state.leg[py])


def _certify(state: Stage1State, x: int, y: int, expected: tuple) -> None:
    """Certify x by its leg, the path through its parent and the path
    through y, sized by the expected color sets, then check those sets."""
    paths = (
        (x, state.leg[x]),
        _path(state, x, state.tree.parent[x], len(expected[1])),
        _path(state, x, y, len(expected[2])),
    )
    got = tuple(_path_colors(state.colors, p) for p in paths)
    if got != tuple(expected):
        raise ColoringInternalError(
            f"certificate color sets for vertex {x} came out as "
            f"{[sorted(s) for s in got]}, table says {[sorted(s) for s in expected]}"
        )
    state.certs[x] = (paths, expected)


def stage2_repair_step(g: Graph, state: Stage1State, w: int) -> tuple:
    """Process one dangerous leaf: pick its repair edge, color it, recolor
    the leaf's own leg when the tables say so, certify the endpoints, and
    return the rule key (also recorded in ``state.steps``).

    Raises ColoringInternalError, before any write, when the key is missing
    from STAGE2_RULES or its rule needs an already certified target; that
    would falsify the transcription, not the method.
    """
    tree = state.tree
    colors, height, pi, last = state.colors, tree.height, tree.pi, tree.first_level[-1]
    targets = [  # height holds exactly the component's vertices
        u for u in g.adj[w] if u in height and ((w, u) if w < u else (u, w)) not in colors
    ]
    if not targets:
        raise ColoringInternalError(
            f"dangerous leaf {w} reached the dispatcher with no uncolored edge"
        )
    type_one = [u for u in targets if pi.get(u) != last]  # the root has no pi: type I
    if pi.get(w) == last:
        case = 1 if type_one else 2
    else:
        case = 3 if type_one else 4
    pool = type_one if type_one else targets
    v = min(pool, key=lambda u: (height[u], u))
    h = height[w]
    key = (case, h % 3, height[v] - h, v in state.recolored)
    rule = STAGE2_RULES.get(key)
    if rule is None:
        raise ColoringInternalError(
            f"no dispatch rule for case {case}, h%3={key[1]}, dh={key[2]}, recolored={key[3]}"
        )
    if rule.expect_v is None and v not in state.certs:
        raise ColoringInternalError(f"rule {key} leaves target {v} uncertified")
    colors[(w, v) if w < v else (v, w)] = rule.edge_color
    if rule.recolor is not None:
        x = state.leg[w]
        colors[(w, x) if w < x else (x, w)] = rule.recolor
        state.recolored.add(w)
        (leg, second, third), _ = state.certs[tree.root]
        # the root's stored second path may ride on w's leg; reroute it via v
        if len(second) == 3 and second[1] == w:
            state.certs[tree.root] = ((leg, _path(state, tree.root, v, 2), third), None)
    _certify(state, w, v, rule.expect_wi)
    if rule.expect_v is not None and v not in state.certs:
        _certify(state, v, w, rule.expect_v)
    state.steps.append((w, key))
    return key


# ---------------------------------------------------------------------------
# Small components.  Their signatures, leg first, are fixed by the colors below.
# D is k_way(3), so an isolated vertex has >= 3 legs and an edge's ends >= 2 each.

ISOLATED_VERTEX_SETS = _parse_sets("1|2|3")
ISOLATED_EDGE_SETS = (_parse_sets("1|2|34"), _parse_sets("2|3|14"))  # (u, v)


def _color_isolated_vertex(g: Graph, dset: set, v: int, colors: dict, certs: dict) -> None:
    ft = [w for w in g.adj[v] if w in dset]
    _color_three_legs(colors, v, ft)
    certs[v] = (((v, ft[0]), (v, ft[1]), (v, ft[2])), ISOLATED_VERTEX_SETS)


def _color_isolated_edge(g: Graph, dset: set, u: int, v: int, colors: dict, certs: dict) -> None:
    fu = [w for w in g.adj[u] if w in dset]
    fv = [w for w in g.adj[v] if w in dset]
    colors[edge_key(u, fu[0])] = 1
    for w in fu[1:]:
        colors[edge_key(u, w)] = 2
    colors[edge_key(v, fv[0])] = 2
    for w in fv[1:]:
        colors[edge_key(v, w)] = 3
    colors[edge_key(u, v)] = 4
    certs[u] = (((u, fu[0]), (u, fu[1]), (u, v, fv[1])), ISOLATED_EDGE_SETS[0])
    certs[v] = (((v, fv[0]), (v, fv[1]), (v, u, fu[0])), ISOLATED_EDGE_SETS[1])


# ---------------------------------------------------------------------------
# The full 6-extra-color scheme.

def three_way_coloring(
    g: Graph, dom
) -> tuple[EdgeColoring, list[SafetyCertificate], ColoringReport]:
    """3-rainbow coloring using at most 6 colors outside D plus a fresh
    palette inside, with machine-checkable safety certificates."""
    dset = _checked_dom(g, dom, k_way(3), "three-way dominating")
    colors: dict = {}
    certs: dict = {}  # vertex -> (paths, color sets as built, or None to walk)
    rewalk: set = set()
    comps = components_minus(g, dset)
    stage2_steps = 0
    rule_keys: set = set()
    recolored = 0
    for comp in comps:
        if len(comp) == 1:
            _color_isolated_vertex(g, dset, comp[0], colors, certs)
            continue
        if len(comp) == 2:
            _color_isolated_edge(g, dset, comp[0], comp[1], colors, certs)
            continue
        # comp is ascending, connected and has >= 3 vertices, so this root exists;
        # a vertex's neighbors outside D are its neighbors in comp
        root = next(v for v in comp if sum(1 for w in g.adj[v] if w not in dset) >= 2)
        tree = bfs_tree(g, comp, root)
        state = stage1_periodic(g, dset, tree)
        for w in order_dangerous(state.dangerous, tree):
            if w not in state.certs:  # else certified as an earlier step's target
                stage2_repair_step(g, state, w)
        colors.update(state.colors)  # only the component's tree edges and legs
        stage2_steps += len(state.steps)
        rule_keys.update(key for _, key in state.steps)
        recolored += len(state.recolored)
        certs.update(state.certs)
        rewalk.add(root)
        legs = state.recolored
        if legs:  # a leg is the last edge of every path that uses it
            rewalk.update(v for v, ((a, b, c), _) in state.certs.items()
                          if a[-2] in legs or b[-2] in legs or c[-2] in legs)
    coloring, report = _color_the_rest(
        g, dset, colors, "theorem3", offset=6, components=len(comps),
        stage2_steps=stage2_steps, recolored=recolored, rule_keys=tuple(sorted(rule_keys)),
        rewalked=len(rewalk),
    )
    # the final pass: a root (its second path may be rerouted) and each
    # certificate with a path ending on a leg a stage-2 rule recolored get one
    # certificate_colors walk under the finished coloring; every other one
    # keeps the sets it was built with, as no other edge changes color once a
    # path has read it (DECISIONS.md entry 13).  Equal signatures share one
    # object, checked against the class table when first seen.
    certificates = []
    signatures: dict = {}
    for v in range(g.n):
        if v in dset:
            continue
        record = certs.get(v)
        if record is None:
            raise ColoringInternalError(f"outside vertex {v} ended without a certificate")
        paths, sets = record
        if v in rewalk:
            sets = certificate_colors(g, coloring, dset, v, paths)
        if sets is None:
            raise ColoringInternalError(f"certificate of vertex {v} does not verify (final pass)")
        shared = signatures.get(sets)
        if shared is None:
            if class_membership(sets) is None:
                raise ColoringInternalError(f"vertex {v} has a signature outside the class table")
            shared = signatures[sets] = sets
        certificates.append(SafetyCertificate(v, paths, shared))
    return coloring, certificates, report


# ---------------------------------------------------------------------------
# Coloring text format: header comments record method, D, d and the total
# color count; then one "u v color" line per edge.

def write_coloring(coloring: EdgeColoring, report: ColoringReport) -> str:
    lines = [
        f"# method={report.method} n={report.n} d={report.d} colors={report.num_colors}"
    ]
    if report.dom:
        lines.append("# dom=" + ",".join(str(v) for v in report.dom))
    for (u, v), col in sorted(coloring.assignment.items()):
        lines.append(f"{u} {v} {col}")
    return "\n".join(lines) + "\n"


def read_coloring(text: str):
    """Parse a coloring file back into (graph, coloring, meta).

    Raises GraphError on a row that is not three integers, on a color that
    is not positive, on an edge listed twice, on a header value that is
    not an integer and on a header dom member that is not a vertex."""
    meta: dict = {}
    rows = []
    assignment: dict = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            for token in stripped[1:].split():
                if "=" in token:
                    key, val = token.split("=", 1)
                    meta[key] = val
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise GraphError(f"bad coloring line {line!r}")
        try:
            u, v, col = (int(t) for t in parts)
        except ValueError:
            raise GraphError(f"bad coloring line {line!r}: expected integers") from None
        if col <= 0:
            raise GraphError(f"bad coloring line {line!r}: colors must be positive")
        if edge_key(u, v) in assignment:
            raise GraphError(f"bad coloring line {line!r}: edge listed twice")
        assignment[edge_key(u, v)] = col
        rows.append((u, v))
    if "n" not in meta:
        raise GraphError("coloring header must record n")
    try:
        n = int(meta["n"])
        meta_out: dict = {"method": meta.get("method", "unknown"), "n": n}
        if "d" in meta:
            meta_out["d"] = int(meta["d"])
        if "colors" in meta:
            meta_out["colors"] = int(meta["colors"])
        if "dom" in meta and meta["dom"]:
            meta_out["dom"] = tuple(int(t) for t in meta["dom"].split(","))
    except ValueError as exc:
        raise GraphError(f"bad coloring header value: {exc}") from None
    graph = build_graph(n, rows)
    vertex_set(graph, meta_out.get("dom", ()))
    return graph, EdgeColoring.from_dict(assignment), meta_out
