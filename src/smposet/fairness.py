"""Instance-level counting, exact uniform sampling, median stable matchings,
and exact sex-equal / balanced stable matchings (`_optimize`, which scores
what `downsets._least` finds), all by the downset DP over the order of
`_prepare`, with no bags.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .downsets import _count, _least, _marginals, _sample
from .instance import Instance, Matching, _min_ranks
from .pathdecomp import _separation
from .posets import Dag, transitive_reduction
from .rotations import RotationDigraph, matching_from_downset, rotation_digraph


@dataclass(frozen=True)
class FairnessScores:
    """Total satisfaction per side plus the derived fairness measures."""

    s_men: int
    s_women: int
    delta: int
    beta: int

    @staticmethod
    def of(inst: Instance, mu: Matching) -> "FairnessScores":
        s_men = 0
        for m in range(inst.n_men):
            w = mu.woman_of(m)
            if w is None:
                raise ValidationError("scores need every man matched")
            s_men += inst.men_rank[m][w]
        s_women = 0
        for w in range(inst.n_women):
            m = mu.man_of(w)
            if m is None:
                raise ValidationError("scores need every woman matched")
            s_women += inst.women_rank[w][m]
        return FairnessScores(
            s_men, s_women, abs(s_men - s_women), max(s_men, s_women)
        )


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


def _prepare(inst: Instance) -> tuple[RotationDigraph, Dag, list[int]]:
    """The rotation digraph of inst, the transitive reduction of its DAG,
    which has the same downsets, and the order the DP inserts the
    reduction's vertices in; the DP's width is the order's vertex separation,
    `pathdecomp._separation`, the width of its `_layout_bags` cut.

    The order is rotation-id order, a linear extension. On a complete
    instance the order of the rotations' extent lower ends, then ids, is
    kept instead when its cut is strictly narrower. A vertex in that cut's
    bag i has an extent covering the lower end of the i-th rotation, since
    every edge joins overlapping extents, so its width is at most that of
    the extent decomposition, 50 k^2 for range k. That order follows each
    rotation's least agent minrank, read by `_min_ranks`' early-stopping
    column sweep; it needs no k or maxranks.
    """
    dg = rotation_digraph(inst)
    g = transitive_reduction(dg.dag())
    order = list(g.vertices())
    if inst.is_complete:
        extent = _extent_order(
            dg, _min_ranks(inst.women_prefs, inst.n_men), _min_ranks(inst.men_prefs, inst.n_women)
        )
        if _separation(g, extent) < _separation(g, order):
            order = extent
    return dg, g, order


def count_stable_matchings(inst: Instance) -> int:
    """Exact count by the downset DP over the order of `_prepare`, in time
    exponential only in its vertex separation.
    """
    _dg, g, order = _prepare(inst)
    return _count(g, order)


def sample_stable_matchings(
    inst: Instance, rng: random.Random, draws: int
) -> list[Matching]:
    """Exactly uniform draws from the stable matchings of inst. The digraph,
    order and DP tables are computed once and reused across draws.
    """
    if draws < 1:
        raise ValidationError(f"draws must be positive, got {draws}")
    dg, g, order = _prepare(inst)
    return [
        matching_from_downset(inst, dg, {v - 1 for v in zs})
        for zs in _sample(g, order, rng, draws)
    ]


def median_and_count(inst: Instance, upper: bool = False) -> tuple[Matching, int]:
    """median_stable_matching and the number of stable matchings."""
    dg, g, order = _prepare(inst)
    total, marginals = _marginals(g, order)
    if total % 2 == 1:
        threshold = (total + 1) // 2
    else:
        threshold = total // 2 if upper else total // 2 + 1
    keep = {rho.id for rho in dg.rotations if marginals[rho.id + 1] >= threshold}
    return matching_from_downset(inst, dg, keep), total


def median_stable_matching(inst: Instance, upper: bool = False) -> Matching:
    """The median stable matching: keep every rotation contained in at least
    half of all downsets (Teo & Sethuraman 1998). For an even count the lower
    median is returned; upper=True keeps the borderline rotations as well.
    """
    return median_and_count(inst, upper)[0]


def _optimize(inst: Instance, key_name: str) -> tuple[Matching, FairnessScores]:
    """The stable matching of least `key_name` score, "delta" or "beta", and
    its scores, by one `_least` pass over the order of `_prepare`, in time
    pseudo-polynomial in n^2 and exponential only in the live width. Ties go
    to the downset of least rotation-id bitmask, sum of 2^id.

    Eliminating a rotation moves each man m_i from w_i down to w_{i+1} and
    each woman w_{i+1} from m_{i+1} up to m_i, so it adds a fixed up > 0 to
    S_M and takes a fixed down > 0 from S_W, whatever the downset. Its weight
    is up + down, whose sum fixes S_M - S_W, or, for beta, both sums, up's in
    the high bits. `_least`'s bitmask of the best weight names the optimum.

    Scores the man-optimal matching first, so an instance that leaves an
    agent unmatched is refused by `FairnessScores.of`: by the rural
    hospitals theorem, every stable matching leaves the same agents single.
    """
    dg, g, order = _prepare(inst)
    base = FairnessScores.of(inst, dg.man_optimal)
    moves = []
    for rho in dg.rotations:
        pairs = rho.pairs
        up = down = 0
        for (m, w), (m2, w2) in zip(pairs, pairs[1:] + pairs[:1]):
            up += inst.men_rank[m][w2] - inst.men_rank[m][w]
            down += inst.women_rank[w2][m2] - inst.women_rank[w2][m]
        moves.append((up, down))
    if key_name == "delta":
        weights = [up + down for up, down in moves]

        def score(t: int) -> int:
            return abs(base.s_men - base.s_women + t)
    else:
        low = sum(down for _up, down in moves).bit_length()

        def score(t: int) -> int:
            return max(base.s_men + (t >> low), base.s_women - (t & ((1 << low) - 1)))

        weights = [(up << low) + down for up, down in moves]
    _t, least = min((score(t), b) for t, b in _least(g, order, weights).items())
    mu = matching_from_downset(inst, dg, [i for i in range(len(dg.rotations)) if least >> i & 1])
    return mu, FairnessScores.of(inst, mu)
