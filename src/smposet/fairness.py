"""Instance-level counting, exact uniform sampling, median stable matchings,
and brute-force sex-equal / balanced optimization.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import CapExceededError, ValidationError
from .downsets import count_downsets, downset_marginals, sample_downsets
from .instance import Instance, Matching, compute_range
from .pathdecomp import PathDecomposition, _extent_order, _layout_bags
from .posets import Dag, enumerate_downsets_bruteforce, transitive_reduction
from .rotations import RotationDigraph, matching_from_downset, rotation_digraph

# brute-force `fair` lists every stable matching, so it refuses more than this
MAX_MATCHINGS = 10**6


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


def _prepare(inst: Instance) -> tuple[RotationDigraph, Dag, PathDecomposition]:
    """The rotation digraph of inst, the transitive reduction of its DAG,
    which has the same downsets, and a vertex-separation decomposition of
    the reduction, which the DP expands and checks itself.

    The decomposition is cut along rotation-id order, a linear extension.
    On a complete instance it is also cut along the order of the rotations'
    extent lower ends, then ids, and the narrower cut is kept (id order on a
    tie). A vertex in that cut's bag i has an extent covering the lower end
    of the i-th rotation, since every edge joins overlapping extents, so its
    width is at most that of the extent decomposition, 50 k^2 for range k.
    """
    dg = rotation_digraph(inst)
    g = transitive_reduction(dg.dag())
    x = _layout_bags(g, g.vertices())
    if inst.is_complete:
        y = _layout_bags(g, _extent_order(dg, compute_range(inst)))
        if y.width < x.width:
            x = y
    return dg, g, x


def count_stable_matchings(inst: Instance) -> int:
    """Exact count by the downset DP over the decomposition of `_prepare`,
    in time exponential only in its width.
    """
    _dg, g, x = _prepare(inst)
    return count_downsets(g, x)


def sample_stable_matchings(
    inst: Instance, rng: random.Random, draws: int
) -> list[Matching]:
    """Exactly uniform draws from the stable matchings of inst. The digraph,
    decomposition and DP tables are computed once and reused across draws.
    """
    dg, g, x = _prepare(inst)
    return [
        matching_from_downset(inst, dg, {v - 1 for v in zs})
        for zs in sample_downsets(g, x, rng, draws)
    ]


def median_and_count(inst: Instance, upper: bool = False) -> tuple[Matching, int]:
    """median_stable_matching and the number of stable matchings."""
    dg, g, x = _prepare(inst)
    total, marginals = downset_marginals(g, x)
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


def _optimize(inst: Instance, key_name: str):
    # count first: listing 2^p downsets would never return
    dg, g, x = _prepare(inst)
    total = count_downsets(g, x)
    if total > MAX_MATCHINGS:
        raise CapExceededError(f"{total} stable matchings exceed cap {MAX_MATCHINGS}")
    downsets = enumerate_downsets_bruteforce(g, max_p=g.p)
    best: Optional[tuple] = None
    for zs in downsets:
        ids = tuple(sorted(v - 1 for v in zs))
        mu = matching_from_downset(inst, dg, ids)
        scores = FairnessScores.of(inst, mu)
        key = (getattr(scores, key_name), ids)
        if best is None or key < best[0]:
            best = (key, mu, scores)
    assert best is not None
    return best[1], best[2]


def sex_equal_bruteforce(inst: Instance) -> tuple[Matching, FairnessScores]:
    """Stable matching minimizing |S_M - S_W| by enumerating all downsets;
    ties broken by the lexicographically least downset. Raises
    CapExceededError, before listing any, if there are more than
    MAX_MATCHINGS.
    """
    return _optimize(inst, "delta")


def balanced_bruteforce(inst: Instance) -> tuple[Matching, FairnessScores]:
    """Stable matching minimizing max(S_M, S_W), same search and cap as
    sex-equal.
    """
    return _optimize(inst, "beta")
