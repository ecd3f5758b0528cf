"""Poset-to-instance constructions.

The generic construction turns an edge-colored DAG into an instance whose
rotation poset is the DAG's transitive closure: one rotation per vertex, one
man and one woman per color at that vertex, and one enforcement pair per
edge. Choosing the coloring specializes the output: all-one colors give a
complete instance of size 2p, pairwise-distinct colors give 3-bounded lists,
per-source colors give two master lists, and path decomposition indices give
bounded range. The oracle that ranks attr6's printed profiles,
`evaluate_profiles`, is in `oracles`.
"""
from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial, reduce
from fractions import Fraction
from itertools import repeat
from typing import Mapping, Optional, Sequence

from .errors import ValidationError
from .instance import Instance, complete_preferences, symmetric_shortlists
from .pathdecomp import PathDecomposition, _nice_steps
from .posets import Dag, _topological_order


def padded_color_sets(
    h: Dag, colors: Mapping[tuple[int, int], int]
) -> dict[int, tuple[int, ...]]:
    """Colors incident to each vertex, padded from {1, 2} up to size two."""
    sets: dict[int, set[int]] = {v: set() for v in h.vertices()}
    for (u, v), c in colors.items():
        sets[u].add(c)
        sets[v].add(c)
    for v in h.vertices():
        while len(sets[v]) < 2:
            sets[v].add(1 if 1 not in sets[v] else 2)
    return {v: tuple(sorted(sets[v])) for v in h.vertices()}


def _edge_colors(h: Dag, colors: Optional[Mapping[tuple[int, int], int]]):
    if colors is None:
        return {e: h.colors.get(e, 1) for e in h.edges}
    out = {}
    for e in h.edges:
        if e not in colors:
            raise ValidationError(f"edge {e} has no color")
        out[e] = int(colors[e])
    return out


def construct_instance(
    h: Dag,
    colors: Optional[Mapping[tuple[int, int], int]] = None,
    color_sets: Optional[Mapping[int, Sequence[int]]] = None,
    orderings: Optional[Mapping[int, Sequence[int]]] = None,
) -> Instance:
    """The generic construction. Realizes the poset given by h's closure.

    colors defaults to the colors stored on h, then to 1. color_sets, when
    given, overrides the padded per-vertex color sets (each must contain the
    incident edge colors and have at least two members). orderings gives the
    cyclic color order per vertex; the default is ascending.
    """
    phi = _edge_colors(h, colors)
    if any(c <= 0 for c in phi.values()):
        raise ValidationError("edge colors must be positive")
    if color_sets is None:
        csets = padded_color_sets(h, phi)
    else:
        csets = {}
        for v in h.vertices():
            if v not in color_sets:
                raise ValidationError(f"no color set for vertex {v}")
            cs = tuple(color_sets[v])
            if len(set(cs)) != len(cs) or len(cs) < 2:
                raise ValidationError(f"color set of vertex {v} must have >= 2 distinct colors")
            csets[v] = cs
        for (u, v), c in phi.items():
            if c not in csets[u] or c not in csets[v]:
                raise ValidationError(f"edge ({u},{v}) color {c} missing from a color set")
    pis: dict[int, tuple[int, ...]] = {}
    for v in h.vertices():
        if orderings is not None and v in orderings:
            pi = tuple(orderings[v])
            if sorted(pi) != sorted(csets[v]):
                raise ValidationError(f"ordering of vertex {v} is not a permutation of its colors")
        else:
            pi = tuple(sorted(csets[v]))
        pis[v] = pi

    subs = [(v, c) for v in h.vertices() for c in sorted(csets[v])]
    midx = {vc: i for i, vc in enumerate(subs)}
    widx = midx  # same layout on both sides

    nxt: dict[tuple[int, int], int] = {}
    prv: dict[tuple[int, int], int] = {}
    for v in h.vertices():
        pi = pis[v]
        b = len(pi)
        for i, c in enumerate(pi):
            nxt[(v, c)] = pi[(i + 1) % b]
            prv[(v, c)] = pi[(i - 1) % b]

    in_colored: dict[tuple[int, int], list[int]] = {}
    out_colored: dict[tuple[int, int], list[int]] = {}
    for (u, v), c in phi.items():
        in_colored.setdefault((v, c), []).append(u)
        out_colored.setdefault((u, c), []).append(v)

    men_prefs = []
    women_prefs = []
    for v, c in subs:
        mids = sorted(in_colored.get((v, c), ()))
        men_prefs.append(
            [widx[(v, c)]]
            + [widx[(u, c)] for u in mids]
            + [widx[(v, nxt[(v, c)])]]
        )
        wids = sorted(out_colored.get((v, c), ()))
        women_prefs.append(
            [midx[(v, prv[(v, c)])]]
            + [midx[(y, c)] for y in wids]
            + [midx[(v, c)]]
        )
    men_labels = [f"m[{c},{v}]" for v, c in subs]
    women_labels = [f"w[{c},{v}]" for v, c in subs]
    return Instance(men_prefs, women_prefs, men_labels, women_labels)


def realize_complete(h: Dag) -> Instance:
    """Complete instance of size 2p realizing h's closure (all edges color 1)."""
    inst = construct_instance(h, colors={e: 1 for e in h.edges})
    return complete_preferences(inst)


def realize_bounded3(h: Dag) -> Instance:
    """3-bounded instance realizing h's closure, via pairwise-distinct edge
    colors (edges sorted, colored 1..q).
    """
    colors = {e: i + 1 for i, e in enumerate(sorted(h.edges))}
    return construct_instance(h, colors=colors)


def bitonic_sequence(a: int, b: int) -> tuple[int, ...]:
    """Circularly bitonic permutation of [a, b]: up by twos, then down by twos,
    so consecutive entries (including the wraparound) differ by at most 2.
    """
    if a > b:
        raise ValidationError("empty interval")
    asc = list(range(a, b + 1, 2))
    rest = sorted(set(range(a, b + 1)) - set(asc), reverse=True)
    return tuple(asc + rest)


@dataclass(frozen=True)
class AttributeProfile:
    """A point on the degree-six moment curve plus an exact linear functional
    phi(x) = weights . x + constant used to rank opposite-side points.
    """

    point: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    constant: Fraction

    def value(self, point: Sequence[Fraction]) -> Fraction:
        return sum((w * x for w, x in zip(self.weights, point)), self.constant)


def _moment_point(i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(i) ** j for j in range(1, 7))


def _scaled_roots(listed: Sequence[int], n: int) -> list[int]:
    """D r for each root r of the functional that ranks the listed 0-based
    indices first, in order, above every other index, where index j sits on
    the moment curve at t = j + 1 and D = 4n^4.

    The roots are r1 = j1 + 1, r2 = j2 + 1 - 1/(4n^4) and r3 = j3 + 1 -
    1/(2n^2), so the scaled roots are D (j + 1) minus a shift of 0, 1 and
    2n^2. The functional is phi(t) = -prod (t - r)^2, which orders points as
    -|prod (D t - D r)| does.
    """
    d = 4 * n**4
    return [d * (j + 1) - s for j, s in zip(listed, (0, 1, 2 * n * n))]


def _root_functional(roots: Sequence[int], n: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Weights and constant of phi(t) = -prod (t - A/D)^2 over the scaled
    roots A, with D = 4n^4, as a functional of the point (t, t^2, ..., t^6).
    """
    d = 4 * n**4
    poly = [1]  # prod (D t - A)^2 = D^(2L) prod (t - A/D)^2, lowest degree first
    for a in [*roots, *roots]:
        poly = [d * x - a * y for x, y in zip([0, *poly], [*poly, 0])]
    scale = d ** (len(poly) - 1)
    coeffs = [Fraction(-c, scale) for c in poly] + [Fraction(0)] * (7 - len(poly))
    return tuple(coeffs[1:]), coeffs[0]


def _rank_by_roots(roots: Sequence[Sequence[int]], n: int, who: str) -> tuple[tuple[int, ...], ...]:
    """Each agent's ranking of the moment-curve points t = 1..n by descending
    value of the functional with that agent's scaled roots A: by ascending
    |prod (D t - A)|, with D = 4n^4, as a permutation of range(n). Raises on
    a tie, as `oracles.evaluate_profiles` does.
    """
    d = 4 * n**4
    dts = [d * t for t in range(1, n + 1)]
    out = []
    for i, agent in enumerate(roots):
        factors = [map(operator.sub, dts, repeat(a)) for a in agent]
        vals = list(map(abs, reduce(partial(map, operator.mul), factors)))
        if len(set(vals)) < len(vals):
            raise ValidationError(f"tie in {who} {i}'s ranking")
        out.append(tuple(sorted(range(len(vals)), key=vals.__getitem__)))
    return tuple(out)


@dataclass(frozen=True)
class AttrRealization:
    instance: Instance
    men_profiles: tuple[AttributeProfile, ...]
    women_profiles: tuple[AttributeProfile, ...]


def realize_attr6(h: Dag) -> AttrRealization:
    """6-attribute instance realizing h's closure.

    Starts from the 3-bounded construction, pads every list to length three
    (smallest absent index), places agent i on the moment curve at i+1, and
    synthesizes each agent's functional so their padded list comes first.

    Each functional is -prod (t - r)^2 over roots r next to the agent's
    padded list, so each list is ranked from the roots alone: at D = 4n^4
    every root scales to an integer D r, and the points order by ascending
    |prod (D t - D r)|, with no functional evaluated. The profiles carry the
    same functionals as exact rationals, and `oracles.evaluate_profiles`
    gives the same lists from them.
    """
    base = realize_bounded3(h)
    n = base.n_men
    if n == 0:
        return AttrRealization(base, (), ())

    def padded(prefs, n_other):
        out = []
        for lst in prefs:
            lst = list(lst)
            absent = (i for i in range(n_other) if i not in lst)
            while len(lst) < min(3, n_other):
                lst.append(next(absent))
            out.append(lst)
        return out

    men_padded = padded(base.men_prefs, base.n_women)
    women_padded = padded(base.women_prefs, base.n_men)
    men_roots = [_scaled_roots(lst, n) for lst in men_padded]
    women_roots = [_scaled_roots(lst, n) for lst in women_padded]
    # permutations of range(n) under bounded3's labels: only `_index` checks
    inst = Instance._parsed(
        _rank_by_roots(men_roots, n, "man"),
        _rank_by_roots(women_roots, n, "woman"),
        base.men_labels,
        base.women_labels,
    )
    for lst, prefix in zip(inst.men_prefs + inst.women_prefs, men_padded + women_padded):
        if list(lst[: len(prefix)]) != prefix:
            raise ValidationError("internal error: functional does not honor the bounded prefix")

    def profiles(roots):
        return tuple(
            AttributeProfile(_moment_point(i + 1), *_root_functional(r, n))
            for i, r in enumerate(roots)
        )

    return AttrRealization(inst, profiles(men_roots), profiles(women_roots))


@dataclass(frozen=True)
class ListRealization:
    """Output of the two-master-list construction.

    instance has complete lists: on the master side every list is one of the
    two masters, lm1 and lm2; the other side keeps its constructed list plus
    appended leftovers. incomplete is the pre-completion instance.
    """

    instance: Instance
    incomplete: Instance
    lm1: tuple[int, ...]
    lm2: tuple[int, ...]
    man_group: dict[int, int]
    woman_group: dict[int, int]
    master_side: str


def realize_list2inf(h: Dag, master_side: str = "m") -> ListRealization:
    """(2, inf)-list instance realizing h's closure: the master side (men by
    default) uses only two full preference lists. master_side='w' builds the
    mirrored (inf, 2)-list variant.
    """
    if master_side not in ("m", "w"):
        raise ValidationError("master_side must be 'm' or 'w'")
    p = h.p
    # (p, p-1, ..., 1) is a topological order of h2; the identity whenever
    # it already is one of h
    relabel = {v: p - i for i, v in enumerate(_topological_order(h))}
    back = {nv: v for v, nv in relabel.items()}
    h2 = Dag(p, {(relabel[u], relabel[v]) for u, v in h.edges})
    phi = {e: e[0] for e in h2.edges}
    base_sets = padded_color_sets(h2, phi)
    csets = {v: tuple(sorted(set(cs) | {p + 1})) for v, cs in base_sets.items()}
    inst0 = construct_instance(h2, colors=phi, color_sets=csets)
    subs = [(v, c) for v in h2.vertices() for c in csets[v]]
    # rename labels back to the caller's vertex ids
    men_labels = [f"m[{c},{back[v]}]" for v, c in subs]
    women_labels = [f"w[{c},{back[v]}]" for v, c in subs]
    incomplete = Instance(inst0.men_prefs, inst0.women_prefs, men_labels, women_labels)

    order_plain = sorted(range(len(subs)), key=lambda i: (subs[i][1], subs[i][0]))
    extras = [i for i in order_plain if subs[i][1] == p + 1]
    others = [i for i in order_plain if subs[i][1] != p + 1]
    master1 = tuple(order_plain)
    master2 = tuple(extras + others)
    man_group = {i: (1 if subs[i][1] != p + 1 else 2) for i in range(len(subs))}
    woman_group = {i: (1 if subs[i][1] != min(csets[subs[i][0]]) else 2) for i in range(len(subs))}

    def assign_masters(group):
        return [list(master1 if group[i] == 1 else master2) for i in range(len(subs))]

    def append_missing(prefs):
        full = []
        for lst in prefs:
            have = set(lst)
            full.append(list(lst) + [j for j in order_plain if j not in have])
        return full

    if master_side == "m":
        men_full = assign_masters(man_group)
        women_full = append_missing(incomplete.women_prefs)
    else:
        men_full = append_missing(incomplete.men_prefs)
        women_full = assign_masters(woman_group)
    instance = Instance(men_full, women_full, men_labels, women_labels)
    return ListRealization(
        instance=instance,
        incomplete=incomplete,
        lm1=master1,
        lm2=master2,
        man_group=man_group,
        woman_group=woman_group,
        master_side=master_side,
    )


def realize_range(h: Dag, x: PathDecomposition) -> Instance:
    """Complete instance of range at most 9(k+2) realizing h's closure, for k
    the width of x, any valid path decomposition of h; raises
    ValidationError "decomposition is not valid for the poset" for any other
    bag sequence.

    Colors are bag indices of the nice form of x, whose bag i follows step i
    of `_nice_steps`, as `oracles.to_nice` builds it: an edge gets the first bag holding both
    ends, a vertex the interval [a_v, b_v + 1] of its bag range, ordered
    bitonically. Lists are completed outward in whole blocks.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    try:
        steps = _nice_steps(x.bags, h.in_adj, h.out_adj)
        for i, (v, inserted) in enumerate(steps, start=1):
            if inserted:
                first[v] = i
            else:
                last[v] = i - 1
    except ValidationError:
        raise ValidationError("decomposition is not valid for the poset") from None
    # the first bag holding both ends: bag ranges are convex and overlap
    phi = {(u, v): max(first[u], first[v]) for u, v in h.edges}
    csets = {v: tuple(range(first[v], last[v] + 2)) for v in h.vertices()}
    pis = {v: bitonic_sequence(first[v], last[v] + 1) for v in h.vertices()}
    i1 = construct_instance(h, colors=phi, color_sets=csets, orderings=pis)
    subs = [(v, c) for v in h.vertices() for c in csets[v]]
    block = [c for _v, c in subs]
    by_block_then_vertex = sorted(range(len(subs)), key=lambda i: (subs[i][1], subs[i][0]))
    sorted_blocks = [block[j] for j in by_block_then_vertex]

    def widen(prefs):
        full = []
        for i, lst in enumerate(prefs):
            # blocks <= b - 3 go before the list, >= b + 3 after, the rest between
            b = block[i]
            lo = bisect_right(sorted_blocks, b - 3)
            hi = bisect_left(sorted_blocks, b + 3)
            have = set(lst)
            band = [j for j in by_block_then_vertex[lo:hi] if j not in have]
            full.append(by_block_then_vertex[:lo] + list(lst) + band + by_block_then_vertex[hi:])
        return full

    inst = Instance(
        widen(i1.men_prefs), widen(i1.women_prefs), i1.men_labels, i1.women_labels
    )
    # shortlist equality with the skeleton certifies the realization carried over
    short = symmetric_shortlists(inst)
    if short.men_prefs != i1.men_prefs or short.women_prefs != i1.women_prefs:
        raise ValidationError("internal error: completion changed the shortlists")
    return inst
