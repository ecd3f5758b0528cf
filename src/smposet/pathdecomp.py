"""Path decompositions: validation, the vertex separation of a layout,
and the file format, whose comments and header follow `_text`.

`_nice_steps` is the one place that expands a bag sequence into nice steps
and decides whether it is valid for a graph. It only checks: it yields each
step's vertex and whether it is inserted, and keeps no DP bookkeeping.
Validation, `realize_range` and the public downset calls walk its steps.
The instance ops walk no bags: they hand the DP an order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from . import _text
from .errors import ParseError, ValidationError
from .posets import Dag


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
