"""DAGs standing for posets: closure, reduction, and verification that a
constructed instance realizes a poset.

Vertices are 1..p throughout, matching the file format, whose comments,
blank lines and header follow `_text`.
"""
from __future__ import annotations

import re
from functools import cached_property
from heapq import heappop, heappush
from itertools import islice, starmap
from operator import eq, itemgetter, lt
from typing import Iterable, Mapping, Optional

from . import _text
from .errors import ParseError, ValidationError


def _repeats(edges: list[tuple[int, int]]) -> bool:
    """Whether the sorted edge list holds an edge twice."""
    return any(map(eq, edges, islice(edges, 1, None)))


def _adjacency(
    keys: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> dict[int, tuple[int, ...]]:
    """Each of the vertex keys mapped to the ys of the pairs (x, y) with x
    equal to it, in order; pairs come grouped by x. A key keeps its int
    object when its value is set. Only one run is a list at a time, so the
    garbage collector does not rescan p live lists: at p = 1e5 those rescans
    took about half of the time to build a Dag.
    """
    adj: dict[int, tuple[int, ...]] = dict.fromkeys(keys, ())
    key, run = None, []
    for x, y in pairs:
        if x != key:
            if run:
                adj[key] = tuple(run)
            key, run = x, []
        run.append(y)
    if run:
        adj[key] = tuple(run)
    return adj


class Dag:
    """A directed acyclic graph on vertices 1..p with optional edge colors."""

    def __init__(
        self,
        p: int,
        edges: Iterable[tuple[int, int]],
        colors: Optional[Mapping[tuple[int, int], int]] = None,
    ):
        p = int(p)
        edge_list = []
        for e in edges:
            u, v = e
            # an (int, int) tuple is kept as it is, so no second copy is made
            if type(e) is not tuple or type(u) is not int or type(v) is not int:
                e = (int(u), int(v))
            edge_list.append(e)
        # linear on the sorted edge lists the file format usually holds
        edge_list.sort()
        if _repeats(edge_list):
            edge_list = sorted(set(edge_list))
        self._build(p, edge_list, dict(colors) if colors else {})

    @classmethod
    def _parsed(
        cls, p: int, edges: list[tuple[int, int]], colors: dict[tuple[int, int], int]
    ) -> "Dag":
        """The Dag of a DAG file, which `parse_dag` has read into a sorted
        list of distinct (int, int) edges. The list and the colors are kept
        as they are, with no conversion or de-duplication.
        """
        g = cls.__new__(cls)
        g._build(p, edges, colors)
        return g

    def _build(
        self,
        p: int,
        edges: list[tuple[int, int]],
        colors: dict[tuple[int, int], int],
    ) -> None:
        """Check and link sorted, distinct (int, int) edges. The range,
        self-loop and cycle checks each accept in one C-speed pass, and the
        per-edge loop runs only to name the first fault.
        """
        self.p = p
        self.colors = colors
        if p < 0:
            raise ValidationError("negative vertex count")
        # the sort is stable, so tails stay ascending within each head
        by_head = sorted(edges, key=itemgetter(1))
        in_range = not edges or (
            1 <= edges[0][0] and edges[-1][0] <= p and 1 <= by_head[0][1] and by_head[-1][1] <= p
        )
        if not in_range or any(starmap(eq, edges)):
            for u, v in edges:
                if not (1 <= u <= p and 1 <= v <= p):
                    raise ValidationError(f"edge ({u},{v}) out of range 1..{p}")
                if u == v:
                    raise ValidationError(f"self-loop at {u}")
        if colors:
            edge_set = frozenset(edges)
            for e in colors:
                if e not in edge_set:
                    raise ValidationError(f"color assigned to missing edge {e}")
            del edge_set  # not held while the adjacency is built
        self.out_adj = _adjacency(range(1, p + 1), edges)
        # the keys of out_adj serve again, so each vertex id is one key int
        self.in_adj = _adjacency(self.out_adj, ((v, u) for u, v in by_head))
        # edges that all ascend make no cycle; otherwise Kahn decides
        if not all(starmap(lt, edges)):
            _topological_order(self)  # raises on a cycle

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set, built from `out_adj` on first access, since
        counting never reads it.
        """
        return frozenset((u, v) for u, vs in self.out_adj.items() for v in vs)

    def vertices(self) -> range:
        return range(1, self.p + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dag) and self.p == other.p and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        return f"Dag(p={self.p}, q={sum(map(len, self.out_adj.values()))})"


def _topological_order(g: Dag) -> list[int]:
    """The vertices of g in a topological order, the largest ready vertex
    first (Kahn, with a heap), so p, p-1, ..., 1 whenever that is one;
    raises ValidationError if g has a cycle.
    """
    indeg = {v: len(us) for v, us in g.in_adj.items()}
    heap = [-v for v in reversed(g.vertices()) if not indeg[v]]  # sorted, so a heap
    order = []
    while heap:
        u = -heappop(heap)
        order.append(u)
        for v in g.out_adj[u]:
            indeg[v] -= 1
            if not indeg[v]:
                heappush(heap, -v)
    if len(order) != g.p:
        raise ValidationError("graph contains a cycle")
    return order


def _reach(g: Dag) -> tuple[list[int], list[tuple[int, int]]]:
    """The bitset of the vertices each vertex reaches (bit v set: v is
    reached, itself included), indexed by vertex, and the edges of the
    transitive reduction.

    Vertices are visited in reverse topological order. A vertex's successors
    are taken in topological order, and the edge to one is kept only if no
    earlier successor reaches it; a later successor cannot. Each kept edge
    costs one OR of p-bit ints.
    """
    order = _topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    reach = [0] * (g.p + 1)
    kept = []
    for u in reversed(order):
        r = 0
        for v in sorted(g.out_adj[u], key=pos.__getitem__):
            if not r >> v & 1:
                kept.append((u, v))
                r |= reach[v]
        reach[u] = r | 1 << u
    return reach, kept


def transitive_closure(g: Dag) -> Dag:
    reach, _ = _reach(g)
    edges = []
    for u in g.vertices():
        r = reach[u] ^ 1 << u
        while r:  # one step per set bit, not per vertex
            low = r & -r
            edges.append((u, low.bit_length() - 1))
            r ^= low
    return Dag(g.p, edges)


def transitive_reduction(g: Dag) -> Dag:
    """The unique minimal edge set with the same closure (unique for DAGs)."""
    return Dag(g.p, _reach(g)[1])


_LABEL_RE = re.compile(r"^m\[(\d+),(\d+)\]$")


def check_realization(p_dag: Dag, inst) -> bool:
    """True when the instance's rotation poset is isomorphic to the closure of
    p_dag via the vertex embedded in the construction labels ``m[c,v]``.
    """
    from .rotations import rotation_digraph

    dg = rotation_digraph(inst)
    vertex_of_rotation: dict[int, int] = {}
    rotation_of_vertex: dict[int, int] = {}
    for rho in dg.rotations:
        vs = set()
        for m, _w in rho.pairs:
            match = _LABEL_RE.match(inst.men_labels[m])
            if match is None:
                raise ValidationError(
                    f"agent {inst.men_labels[m]!r} carries no construction label"
                )
            vs.add(int(match.group(2)))
        if len(vs) != 1:
            return False
        (v,) = vs
        if v in rotation_of_vertex or not 1 <= v <= p_dag.p:
            return False
        vertex_of_rotation[rho.id] = v
        rotation_of_vertex[v] = rho.id
    if len(dg.rotations) != p_dag.p:
        return False
    want = transitive_closure(p_dag).edges
    # dag() vertices are rotation ids shifted by +1
    got = {
        (vertex_of_rotation[a - 1], vertex_of_rotation[b - 1])
        for a, b in transitive_closure(dg.dag()).edges
    }
    return got == want


def parse_dag(text: str) -> Dag:
    """Parse the DAG file format: ``DAG <p> <q>`` then q lines ``u v [color]``."""
    (p, q), body = _text.header(text, "DAG", 2, "DAG")
    found = len(body) - body.count("")
    if found != q:
        raise ParseError(f"expected {q} edge lines, found {found}")
    colors = {}
    ids = _text.VertexIds()
    try:
        # plain ``u v`` lines in one pass; a color or a fault, which makes
        # this raise, sends the read to the loop below
        edges = [(ids[u], ids[v]) for u, v in map(str.split, filter(None, body))]
    except ValueError:
        edges = []
        for line in filter(None, body):
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(f"bad edge line: {line!r}")
            try:
                u = ids[parts[0]]
                v = ids[parts[1]]
            except ValueError:
                raise ParseError(f"bad edge line: {line!r}") from None
            edges.append((u, v))
            if len(parts) == 3:
                try:
                    c = int(parts[2])
                except ValueError:
                    raise ParseError(f"bad color in line: {line!r}") from None
                if c <= 0:
                    raise ParseError(f"colors must be positive: {line!r}")
                colors[(u, v)] = c
    del body, ids  # not held while the Dag is built
    edges.sort()
    if _repeats(edges):
        raise ParseError("duplicate edge")
    try:
        return Dag._parsed(p, edges, colors)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def format_dag(g: Dag) -> str:
    out = [f"DAG {g.p} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        if (u, v) in g.colors:
            out.append(f"{u} {v} {g.colors[(u, v)]}")
        else:
            out.append(f"{u} {v}")
    return "\n".join(out) + "\n"
