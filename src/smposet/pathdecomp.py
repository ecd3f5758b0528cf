"""Path decompositions: validation, nice form, the extent-based
decomposition of rotation digraphs, an exact pathwidth solver for tiny
graphs, and the file format, whose comments and header follow `_text`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.bags:
            out |= b
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.bags)


def validate_decomposition(g: Dag, x: PathDecomposition) -> bool:
    """Check the three path decomposition conditions against the undirected
    version of g: vertex coverage, edge coverage, and convexity.

    One pass over the bags records where each vertex enters and leaves; a
    vertex that enters a second time breaks convexity. Time is linear in the
    total bag size plus the edge count.
    """
    verts = frozenset(g.vertices())
    first = [-1] * (g.p + 1)
    last = [-1] * (g.p + 1)
    prev: frozenset[int] = frozenset()
    for i, bag in enumerate(x.bags):
        if not bag <= verts:
            return False
        # int(): a bag may hold a value equal to a vertex, such as 2.0
        for v in map(int, bag - prev):
            if first[v] >= 0:
                return False
            first[v] = i
        for v in map(int, prev - bag):
            last[v] = i - 1
        prev = bag
    for v in map(int, prev):
        last[v] = len(x.bags) - 1
    if -1 in first[1:]:
        return False
    for u, v in g.edges:
        if first[u] > last[v] or first[v] > last[u]:
            return False
    return True


def _nice_bags(bags: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Split transitions into single removals (first) then single insertions."""
    out: list[frozenset[int]] = []
    cur: set[int] = set()
    for target in list(bags) + [frozenset()]:
        for v in sorted(cur - target):
            cur.discard(v)
            out.append(frozenset(cur))
        for v in sorted(target - cur):
            cur.add(v)
            out.append(frozenset(cur))
    return tuple(out)


def to_nice(g: Dag, x: PathDecomposition) -> PathDecomposition:
    """Nice decomposition of equal width and length exactly 2n."""
    if not validate_decomposition(g, x):
        raise ValidationError("invalid path decomposition")
    nice = PathDecomposition(_nice_bags(x.bags))
    assert nice.is_nice and len(nice) == 2 * len(x.vertices())
    return nice


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

    Bags contain rotation ids shifted by +1, matching RotationDigraph.dag().
    """
    dg = rotation_digraph(inst)
    return dg, to_nice(dg.dag(), _extent_bags(inst, dg, compute_range(inst)))


def _extent_bags(
    inst: Instance, dg: RotationDigraph, profile: RangeProfile
) -> PathDecomposition:
    # bag i holds the rotations whose extent covers minrank i
    n = max(inst.n_men, inst.n_women)
    exts = [extent_of(rho, profile) for rho in dg.rotations]
    bags = []
    for i in range(1, n + 1):
        bags.append(frozenset(rho.id + 1 for rho, e in zip(dg.rotations, exts) if e.lo <= i <= e.hi))
    return PathDecomposition(tuple(bags))


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
    # bag_i holds v_i plus every earlier vertex with a neighbor at position >= i
    bags = []
    for i, v in enumerate(layout):
        later = 0
        for x in layout[i:]:
            later |= 1 << (x - 1)
        bag = {v}
        for u in layout[:i]:
            if nbr[u] & later:
                bag.add(u)
        bags.append(frozenset(bag))
    x = PathDecomposition(tuple(bags))
    if not validate_decomposition(g, x):
        raise ValidationError("internal error: layout decomposition invalid")
    assert x.width == f[full]
    return f[full], x


def parse_decomposition(text: str) -> PathDecomposition:
    """Parse the decomposition format: ``PD <numBags>`` then one line per bag
    of space-separated vertex ids; a blank line is an empty bag.
    """
    (count,), body = _text.header(text, "PD", 1, "decomposition")
    while len(body) > count and not body[-1]:
        body.pop()
    if len(body) != count:
        raise ParseError(f"expected {count} bag lines, found {len(body)}")
    bags = []
    for line in body:
        try:
            bags.append(frozenset(map(int, line.split())))
        except ValueError:
            raise ParseError(f"bad bag line: {line!r}") from None
    return PathDecomposition(tuple(bags))


def format_decomposition(x: PathDecomposition) -> str:
    out = [f"PD {len(x.bags)}"]
    for bag in x.bags:
        out.append(" ".join(str(v) for v in sorted(bag)))
    return "\n".join(out) + "\n"
