"""Brute-force oracles, which no fast module imports, each the slow
counterpart of a fast path: the exposed-rotation search for
`rotation_digraph` and the DP count, the subset DFS for `count_downsets`,
the paper's extent decomposition for the cut of `fairness._prepare`, exact
tiny pathwidth for any decomposition's width, the fair brute force for
`fairness._optimize`, and `evaluate_profiles` for `realize_attr6`'s lists.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CapExceededError, ValidationError
from .fairness import FairnessScores, count_stable_matchings
from .instance import MAN, Instance, Matching, RangeProfile, blocking_pairs, compute_range, gale_shapley
from .pathdecomp import PathDecomposition, _layout_bags, _nice_steps, validate_decomposition
from .posets import Dag, transitive_closure
from .realize import AttributeProfile
from .rotations import Rotation, RotationDigraph, matching_from_downset, rotation_digraph

# the brute-force optimizers list every stable matching, so they refuse more than this
MAX_MATCHINGS = 10**6


def _successor(inst: Instance, mu: Matching, m: int) -> Optional[tuple[int, int]]:
    """For matched man m: the first woman after his partner who prefers him to
    her own partner, together with that partner. None when there is no such
    woman or she is unmatched: she would take him over staying single, so he
    can never move past her.
    """
    w = mu.woman_of(m)
    if w is None:
        return None
    prefs = inst.men_prefs[m]
    for w2 in prefs[inst.men_rank[m][w] :]:
        p2 = mu.man_of(w2)
        if p2 is None:
            return None
        if inst.women_rank[w2][m] < inst.women_rank[w2][p2]:
            return w2, p2
    return None


def exposed_rotations(inst: Instance, mu: Matching) -> list[Rotation]:
    """All rotations exposed in the stable matching mu, canonical, sorted by
    first man index. Ids are -1; real ids are assigned by rotation_digraph.
    """
    if blocking_pairs(inst, mu):
        raise ValidationError("matching is not stable")
    return _exposed(inst, mu)


def _exposed(inst: Instance, mu: Matching) -> list[Rotation]:
    """exposed_rotations without its stability check."""
    nxt: dict[int, int] = {}
    for m, _w in sorted(mu.pairs):
        succ = _successor(inst, mu, m)
        if succ is not None:
            nxt[m] = succ[1]
    rotations = []
    state: dict[int, int] = {}  # 0 in progress marker slot; None unvisited; 1 done
    for m0 in sorted(nxt):
        if m0 in state:
            continue
        path = []
        pos: dict[int, int] = {}
        m = m0
        while m in nxt and m not in state and m not in pos:
            pos[m] = len(path)
            path.append(m)
            m = nxt[m]
        if m in pos:  # found a new cycle
            cycle = path[pos[m] :]
            pairs = [(x, mu.woman_of(x)) for x in cycle]
            rotations.append(Rotation.canonical(pairs))
        for x in path:
            state[x] = 1
    rotations.sort(key=lambda r: r.pairs[0][0])
    return rotations


def eliminate(inst: Instance, mu: Matching, rho: Rotation) -> Matching:
    """Eliminate an exposed rotation: rematch each listed man to the next
    pair's woman. Raises when rho is not exposed in mu.
    """
    n = len(rho.pairs)
    for i, (m, w) in enumerate(rho.pairs):
        if mu.woman_of(m) != w:
            raise ValidationError("rotation is not exposed in this matching")
        succ = _successor(inst, mu, m)
        w_next = rho.pairs[(i + 1) % n][1]
        if succ is None or succ[0] != w_next:
            raise ValidationError("rotation is not exposed in this matching")
    moved = {m: rho.pairs[(i + 1) % n][1] for i, (m, _) in enumerate(rho.pairs)}
    pairs = [(m, w) for m, w in mu.pairs if m not in moved]
    pairs += list(moved.items())
    return Matching(pairs)


def downset_from_matching(inst: Instance, dg: RotationDigraph, mu: Matching) -> frozenset[int]:
    """The downset of rotations whose elimination from the man-optimal
    matching produces the stable matching mu; inverse of matching_from_downset.
    """
    if blocking_pairs(inst, mu):
        raise ValidationError("matching is not stable")
    z = set()
    for rho in dg.rotations:
        votes = set()
        for m, w in rho.pairs:
            cur = mu.woman_of(m)
            if cur is None:
                raise ValidationError("matching leaves a rotation member unmatched")
            votes.add(inst.men_rank[m][cur] > inst.men_rank[m][w])
        if len(votes) != 1:
            raise ValidationError("matching is inconsistent with the rotation structure")
        if votes.pop():
            z.add(rho.id)
    if matching_from_downset(inst, dg, z) != mu:
        raise ValidationError("matching does not correspond to any downset")
    return frozenset(z)


def all_stable_matchings_bruteforce(inst: Instance, max_size: int = 8) -> list[Matching]:
    """Every stable matching, found by DFS over exposed-rotation eliminations
    starting from the man-optimal matching. Oracle for the counting routines.
    """
    if max(inst.n_men, inst.n_women) > max_size:
        raise CapExceededError(
            f"instance size {max(inst.n_men, inst.n_women)} exceeds cap {max_size}"
        )
    return sorted(_stable_matchings(inst), key=lambda m: m.sorted_pairs())


def _stable_matchings(inst: Instance) -> set[Matching]:
    """The DFS of all_stable_matchings_bruteforce, with no cap."""
    mu0 = gale_shapley(inst, MAN)
    seen = {mu0}
    stack = [mu0]
    while stack:
        mu = stack.pop()
        for rho in _exposed(inst, mu):
            nxt = eliminate(inst, mu, rho)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def is_downset(g: Dag, zs: Iterable[int]) -> bool:
    """True when zs is ancestor-closed in g."""
    z = set(zs)
    if not z <= set(g.vertices()):
        return False
    return all(u in z for v in z for u in g.in_adj[v])


def enumerate_downsets_bruteforce(g: Dag, max_p: int = 20) -> list[frozenset[int]]:
    """All downsets, by DFS over the downset lattice. Oracle-grade; the cap
    guards against runaway output since there can be 2^p downsets.
    """
    if g.p > max_p:
        raise CapExceededError(f"{g.p} vertices exceeds cap {max_p}")
    start: frozenset[int] = frozenset()
    seen = {start}
    stack = [start]
    while stack:
        z = stack.pop()
        for v in g.vertices():
            if v in z:
                continue
            if all(u in z for u in g.in_adj[v]):
                nz = z | {v}
                if nz not in seen:
                    seen.add(nz)
                    stack.append(nz)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def poset_isomorphic_small(p_dag: Dag, q_dag: Dag, max_p: int = 10) -> bool:
    """Closure isomorphism test by backtracking with degree/level pruning."""
    if p_dag.p > max_p or q_dag.p > max_p:
        raise CapExceededError(f"isomorphism test capped at {max_p} vertices")
    if p_dag.p != q_dag.p:
        return False
    a = transitive_closure(p_dag)
    b = transitive_closure(q_dag)
    if len(a.edges) != len(b.edges):
        return False

    def signature(g: Dag) -> dict[int, tuple[int, int]]:
        return {v: (len(g.in_adj[v]), len(g.out_adj[v])) for v in g.vertices()}

    siga, sigb = signature(a), signature(b)
    if sorted(siga.values()) != sorted(sigb.values()):
        return False
    verts_a = sorted(a.vertices(), key=lambda v: siga[v])
    candidates = {v: [w for w in b.vertices() if sigb[w] == siga[v]] for v in verts_a}

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(verts_a):
            return True
        v = verts_a[i]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for v2, w2 in mapping.items():
                if ((v, v2) in a.edges) != ((w, w2) in b.edges):
                    ok = False
                    break
                if ((v2, v) in a.edges) != ((w2, w) in b.edges):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)


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


def _bruteforce(inst: Instance, key_name: str):
    # the DP's count only refuses: listing 2^p matchings would never return
    total = count_stable_matchings(inst)
    if total > MAX_MATCHINGS:
        raise CapExceededError(f"{total} stable matchings exceed cap {MAX_MATCHINGS}")
    dg = rotation_digraph(inst)
    best: Optional[tuple] = None
    for mu in _stable_matchings(inst):
        scores = FairnessScores.of(inst, mu)
        key = (getattr(scores, key_name), sum(1 << i for i in downset_from_matching(inst, dg, mu)))
        if best is None or key < best[0]:
            best = (key, mu, scores)
    assert best is not None
    return best[1], best[2]


def sex_equal_bruteforce(inst: Instance) -> tuple[Matching, FairnessScores]:
    """Stable matching minimizing |S_M - S_W| by listing every stable
    matching with the exposed-rotation search; ties go to the downset of
    least rotation-id bitmask, sum of 2^id, as in the DP. Raises
    CapExceededError, before listing any, if there are more than
    MAX_MATCHINGS.
    """
    return _bruteforce(inst, "delta")


def balanced_bruteforce(inst: Instance) -> tuple[Matching, FairnessScores]:
    """Stable matching minimizing max(S_M, S_W), same search, tie rule and
    cap as sex-equal.
    """
    return _bruteforce(inst, "beta")


def evaluate_profiles(
    men_profiles: Sequence[AttributeProfile],
    women_profiles: Sequence[AttributeProfile],
    men_labels: Optional[Sequence[str]] = None,
    women_labels: Optional[Sequence[str]] = None,
) -> Instance:
    """Complete instance ranked by descending functional value, with exact
    rational comparison. Raises on any tie, which would make preferences
    non-strict.

    Scores are integers: each weight vector is scaled by the LCM of its
    denominators, and each side's points by the LCM of theirs. Both factors
    are positive, and the constant adds the same to every score of a ranking,
    so the order and the ties are those of the rational values.

    This ranks any profiles. realize_attr6 does not call it, since it ranks
    from the roots of its functionals; the tests use it as the oracle that
    those rankings equal the ones the printed profiles give.
    """

    def integer_rows(rows) -> list[list[int]]:
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        return [[int(x * scale) for x in row] for row in rows]

    def rank(profile: AttributeProfile, points: list[list[int]], who: str):
        (weights,) = integer_rows([profile.weights])
        scored = sorted(
            ((sum(map(operator.mul, weights, pt)), i) for i, pt in enumerate(points)),
            key=lambda t: t[0],
            reverse=True,
        )
        for (va, _), (vb, _) in zip(scored, scored[1:]):
            if va == vb:
                raise ValidationError(f"tie in {who}'s ranking")
        return [i for _, i in scored]

    w_points = integer_rows([p.point for p in women_profiles])
    m_points = integer_rows([p.point for p in men_profiles])
    men_prefs = [rank(p, w_points, f"man {i}") for i, p in enumerate(men_profiles)]
    women_prefs = [rank(p, m_points, f"woman {i}") for i, p in enumerate(women_profiles)]
    return Instance(men_prefs, women_prefs, men_labels, women_labels)
