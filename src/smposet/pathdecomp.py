"""Path decompositions: validation, nice form, the extent-based
decomposition of rotation digraphs, an exact pathwidth solver for tiny
graphs, and the file format, whose comments and header follow `_text`.

`_nice_steps` is the one place that expands a bag sequence into nice steps
and decides whether it is valid for a graph. It only checks: it yields each
step's vertex and whether it is inserted, and keeps no DP bookkeeping.
Validation, nice form, `realize_range` and the public downset calls walk
its steps. The instance ops walk no bags: they hand the DP an order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from . import _text
from .errors import CapExceededError, ParseError, ValidationError
from .instance import Instance, compute_range, RangeProfile
from .posets import Dag
from .rotations import Rotation, RotationDigraph, rotation_digraph


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered sequence of vertex bags. In nice form exactly one vertex is
    inserted or removed per step and the final bag is empty, so the length is
    twice the number of vertices.
    """

    bags: tuple[frozenset[int], ...]

    @staticmethod
    def of(bags: Iterable[Iterable[int]]) -> "PathDecomposition":
        return PathDecomposition(tuple(frozenset(b) for b in bags))

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    @property
    def is_nice(self) -> bool:
        prev: frozenset[int] = frozenset()
        inserted = set()
        for bag in self.bags:
            delta = bag ^ prev
            if len(delta) != 1:
                return False
            if bag > prev:
                v = next(iter(delta))
                if v in inserted:
                    return False
                inserted.add(v)
            prev = bag
        return not prev if self.bags else True

    def __len__(self) -> int:
        return len(self.bags)


def _nice_steps(
    bags: Iterable[frozenset[int]],
    in_adj: dict[int, tuple[int, ...]],
    out_adj: dict[int, tuple[int, ...]],
):
    """Expand a bag sequence into nice steps for the graph with adjacency
    in_adj / out_adj, checking it as it goes.

    Between two bags, and after the last one, the vertices that leave are
    forgotten in sorted order and then the vertices that enter are inserted
    in sorted order. Yields (v, inserted) per step.

    The sequence is valid for the graph exactly when every inserted vertex is
    a vertex of the graph not inserted before, none of its neighbours has
    left the bag already, and every vertex is inserted by the end. Raises
    ValidationError at the first step that breaks this, or after the last
    step.
    """
    # the vertices that have left the bag: a seen vertex is outside the bag
    # exactly when it is in here
    gone: set[int] = set()
    prev: frozenset[int] = frozenset()
    for bag in chain(bags, (frozenset(),)):
        leave = prev - bag
        enter = bag - prev
        prev = bag
        if len(leave) + len(enter) > 1:
            # before sorting, so that a bag holding "a" is not a TypeError;
            # a leaving vertex was checked when it entered
            if not in_adj.keys() >= enter:
                raise ValidationError("decomposition is not valid for this graph")
            if len(leave) > 1:
                leave = sorted(leave)
            if len(enter) > 1:
                enter = sorted(enter)
        for v in leave:
            gone.add(v)
            yield v, False
        for v in enter:
            if v not in in_adj:
                raise ValidationError("decomposition is not valid for this graph")
            if v in gone:
                raise ValidationError("invalid decomposition: vertex inserted twice")
            if not gone.isdisjoint(in_adj[v]):
                raise ValidationError("invalid decomposition: seen in-neighbor outside bag")
            if not gone.isdisjoint(out_adj[v]):
                raise ValidationError("invalid decomposition: seen out-neighbor outside bag")
            yield v, True
    if len(gone) != len(in_adj):
        raise ValidationError("invalid decomposition: a vertex is in no bag")


def validate_decomposition(g: Dag, x: PathDecomposition) -> bool:
    """Whether x is a path decomposition of the undirected version of g:
    every vertex covered, every edge covered, and each vertex's bags
    consecutive. Runs `_nice_steps` to the end, in time linear in the total
    bag size plus the edge count, plus sorting each change between bags.
    """
    try:
        for _ in _nice_steps(x.bags, g.in_adj, g.out_adj):
            pass
    except ValidationError:
        return False
    return True


def to_nice(g: Dag, x: PathDecomposition) -> PathDecomposition:
    """Nice decomposition of equal width and length exactly 2n: the bag
    after each step of `_nice_steps`. Raises ValidationError unless x is
    valid for g.
    """
    bags = []
    bag: frozenset[int] = frozenset()
    for v, inserted in _nice_steps(x.bags, g.in_adj, g.out_adj):
        bag = bag | {v} if inserted else bag - {v}
        bags.append(bag)
    return PathDecomposition(tuple(bags))


@dataclass(frozen=True)
class Extent:
    """Closed interval of minranks covered by a rotation, padded by 2k-1."""

    lo: int
    hi: int


def extent_of(rho: Rotation, profile: RangeProfile) -> Extent:
    ranks = [profile.orank_men[m] for m in rho.men()]
    ranks += [profile.orank_women[w] for w in rho.women()]
    k = profile.k
    return Extent(min(ranks) - 2 * k + 1, max(ranks) + 2 * k - 1)


def construct_path_decomposition(
    inst: Instance,
) -> tuple[RotationDigraph, PathDecomposition]:
    """Rotation digraph of a complete instance plus a nice path decomposition
    of it built from rotation extents; width is at most 50 k^2 for k the range.
    The instance ops run on the narrower cut of `fairness._prepare`; this is
    the paper's decomposition, kept as an oracle for that cut.

    Bags contain rotation ids shifted by +1, matching RotationDigraph.dag().
    """
    dg = rotation_digraph(inst)
    profile = compute_range(inst)
    exts = [extent_of(rho, profile) for rho in dg.rotations]
    # bag i holds the rotations whose extent covers minrank i
    bags = [
        [rho.id + 1 for rho, e in zip(dg.rotations, exts) if e.lo <= i <= e.hi]
        for i in range(1, max(inst.n_men, inst.n_women) + 1)
    ]
    return dg, to_nice(dg.dag(), PathDecomposition.of(bags))


def _extent_order(
    dg: RotationDigraph, orank_men: Sequence[int], orank_women: Sequence[int]
) -> list[int]:
    """The DAG vertices of dg (rotation id + 1) ordered by the lower end of
    their rotation's extent, then by id. That lower end is the least minrank
    of the rotation's agents less 2k-1, the same shift for every rotation,
    so the order needs only the minranks.
    """
    lo = [min(min(orank_men[m], orank_women[w]) for m, w in rho.pairs) for rho in dg.rotations]
    return sorted(range(1, len(lo) + 1), key=lambda v: (lo[v - 1], v))


def _layout_bags(g: Dag, layout: Sequence[int]) -> PathDecomposition:
    """The vertex-separation decomposition of g along layout, an order of
    all its vertices: bag i holds the i-th vertex and every earlier vertex
    with a neighbour at position i or later. Its width is the vertex
    separation number of the layout, and the pathwidth of g for the best
    layout (Kinnersley 1992).
    """
    leave = _leave(g, layout)
    bags = []
    bag: set[int] = set()
    for i, v in enumerate(layout):
        bag.add(v)
        bags.append(frozenset(bag))
        bag.difference_update(leave[i])
    return PathDecomposition(tuple(bags))


def _separation(g: Dag, order: Sequence[int]) -> int:
    """The vertex separation of order, an order of all vertices of g: the
    most vertices alive (as in `_leave`) at any position, less one, and -1
    for an empty order. It is the width of `_layout_bags(g, order)`, in time
    O(n + m).
    """
    most = gone = 0
    for i, left in enumerate(_leave(g, order)):
        most = max(most, i + 1 - gone)
        gone += len(left)
    return most - 1


def _leave(g: Dag, layout: Sequence[int]) -> list[list[int]]:
    """Per position i of layout, the vertices last alive there: a vertex is
    alive from its own position to the last of its neighbours'.
    """
    pos = {v: i for i, v in enumerate(layout)}
    leave: list[list[int]] = [[] for _ in layout]
    for v, i in pos.items():
        last = max((pos[u] for u in chain(g.in_adj[v], g.out_adj[v])), default=i)
        leave[max(i, last)].append(v)
    return leave


def pathwidth_exact_tiny(g: Dag, max_p: int = 10) -> tuple[int, PathDecomposition]:
    """Optimal pathwidth via the vertex separation number, by dynamic
    programming over vertex subsets. Exhaustive; capped.
    """
    if g.p > max_p:
        raise CapExceededError(f"{g.p} vertices exceeds cap {max_p}")
    p = g.p
    if p == 0:
        return -1, PathDecomposition(())
    nbr = [0] * (p + 1)
    for u, v in g.edges:
        nbr[u] |= 1 << (v - 1)
        nbr[v] |= 1 << (u - 1)
    full = (1 << p) - 1

    def cost(mask: int) -> int:
        # vertices inside mask with a neighbor outside it
        c = 0
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length()
            if nbr[v] & ~mask & full:
                c += 1
            rest ^= low
        return c

    INF = p + 1
    f = [INF] * (1 << p)
    choice = [0] * (1 << p)
    f[0] = 0
    for mask in range(1, 1 << p):
        cm = cost(mask)
        best, who = INF, 0
        rest = mask
        while rest:
            low = rest & -rest
            cand = f[mask ^ low]
            if cand < best:
                best, who = cand, low
            rest ^= low
        f[mask] = max(best, cm)
        choice[mask] = who
    layout = []
    mask = full
    while mask:
        low = choice[mask]
        layout.append(low.bit_length())
        mask ^= low
    layout.reverse()
    x = _layout_bags(g, layout)
    if not validate_decomposition(g, x):
        raise ValidationError("internal error: layout decomposition invalid")
    assert x.width == f[full]
    return f[full], x


def parse_decomposition(text: str) -> PathDecomposition:
    """Parse the decomposition format: ``PD <numBags>`` then one line per bag
    of space-separated vertex ids; a blank line is an empty bag.
    """
    (count,), body = _text.header(text, "PD", 1, "decomposition")
    if count < 0:
        raise ParseError("negative bag count")
    while len(body) > count and not body[-1]:
        body.pop()
    if len(body) != count:
        raise ParseError(f"expected {count} bag lines, found {len(body)}")
    bags = []
    ids = _text.VertexIds()
    # each line is dropped once it is read, so that the reader does not hold
    # all of the lines and all of the bags at once
    body.reverse()
    while body:
        line = body.pop()
        try:
            bags.append(frozenset(map(ids.__getitem__, line.split())))
        except ValueError:
            raise ParseError(f"bad bag line: {line!r}") from None
    return PathDecomposition(tuple(bags))


def format_decomposition(x: PathDecomposition) -> str:
    out = [f"PD {len(x.bags)}"]
    for bag in x.bags:
        out.append(" ".join(str(v) for v in sorted(bag)))
    return "\n".join(out) + "\n"
