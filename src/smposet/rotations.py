"""Rotations of a stable matching instance: extraction, elimination, the
rotation digraph built from Gusfield's two edge rules, and the bijection
between downsets of the digraph and stable matchings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import CapExceededError, ValidationError
from .instance import MAN, Instance, Matching, blocking_pairs, gale_shapley
from .posets import Dag

RULE_1 = 1
RULE_2 = 2


@dataclass(frozen=True)
class Rotation:
    """A cyclic list of matched pairs; eliminating it moves every listed man
    one step down to the next pair's woman. Canonical form starts at the
    least man index.
    """

    id: int
    pairs: tuple[tuple[int, int], ...]
    label: Optional[str] = None

    def __post_init__(self):
        if len(self.pairs) < 2:
            raise ValidationError("a rotation has at least two pairs")
        men = [m for m, _ in self.pairs]
        women = [w for _, w in self.pairs]
        if len(set(men)) != len(men) or len(set(women)) != len(women):
            raise ValidationError("rotation agents must be distinct")

    @staticmethod
    def canonical(pairs: Iterable[tuple[int, int]], id: int = -1, label=None) -> "Rotation":
        ps = list(pairs)
        start = min(range(len(ps)), key=lambda i: ps[i][0])
        return Rotation(id, tuple(ps[start:] + ps[:start]), label)

    def men(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.pairs)

    def women(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.pairs)


@dataclass(frozen=True)
class RotationDigraph:
    """All rotations of an instance plus rule-tagged edges whose transitive
    closure is the rotation poset. Rotation ids follow elimination order.
    """

    rotations: tuple[Rotation, ...]
    edges: dict[tuple[int, int], frozenset[int]] = field(default_factory=dict)

    def dag(self) -> Dag:
        """The digraph as a Dag; rotation i becomes vertex i + 1."""
        return Dag(len(self.rotations), {(a + 1, b + 1) for a, b in self.edges})

    def to_dot(self, inst: Optional[Instance] = None) -> str:
        def pair_text(m: int, w: int) -> str:
            if inst is not None:
                return f"({inst.men_labels[m]},{inst.women_labels[w]})"
            return f"(m{m + 1},w{w + 1})"

        out = ["digraph rotations {"]
        for rho in self.rotations:
            cycle = "".join(pair_text(m, w) for m, w in rho.pairs)
            out.append(f'  r{rho.id} [label="rho{rho.id + 1}: {cycle}"];')
        for (a, b), rules in sorted(self.edges.items()):
            tag = "".join(str(r) for r in sorted(rules))
            out.append(f'  r{a} -> r{b} [label="rule={tag}"];')
        out.append("}")
        return "\n".join(out) + "\n"


def _successor(inst: Instance, mu: Matching, m: int) -> Optional[tuple[int, int]]:
    """For matched man m: the first woman after his partner who prefers him to
    her own partner, together with that partner. None when no such woman.
    """
    w = mu.woman_of(m)
    if w is None:
        return None
    prefs = inst.men_prefs[m]
    for w2 in prefs[inst.men_rank[m][w] :]:
        p2 = mu.man_of(w2)
        if p2 is not None and inst.women_rank[w2][m] < inst.women_rank[w2][p2]:
            return w2, p2
    return None


def exposed_rotations(inst: Instance, mu: Matching, _skip_check: bool = False) -> list[Rotation]:
    """All rotations exposed in the stable matching mu, canonical, sorted by
    first man index. Ids are -1; real ids are assigned by rotation_digraph.
    """
    if not _skip_check and blocking_pairs(inst, mu):
        raise ValidationError("matching is not stable")
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


def rotation_digraph(inst: Instance) -> RotationDigraph:
    """Enumerate all rotations by repeated elimination from the man-optimal
    matching and emit Rule 1 / Rule 2 edges. Rotation ids follow elimination
    order, which is a linear extension of the rotation poset.
    """
    mu = gale_shapley(inst, MAN)
    if blocking_pairs(inst, mu):
        raise ValidationError("instance has no stable matching structure")  # unreachable
    rotations: list[Rotation] = []
    # (man, woman) -> (id, exact): the rotation moving him to her (exact) or
    # strictly below her; move_up is the women's mirror
    move_down: dict[tuple[int, int], tuple[int, bool]] = {}
    move_up: dict[tuple[int, int], tuple[int, bool]] = {}
    while True:
        exposed = exposed_rotations(inst, mu, _skip_check=True)
        if not exposed:
            break
        rho = Rotation(len(rotations), exposed[0].pairs)
        rotations.append(rho)
        n = len(rho.pairs)
        for i, (m, w) in enumerate(rho.pairs):
            w_next = rho.pairs[(i + 1) % n][1]
            m_prev = rho.pairs[(i - 1) % n][0]
            # the men's side: m moves from w down to w_next
            lo = inst.men_rank[m][w]
            hi = inst.men_rank[m][w_next]
            for w_mid in inst.men_prefs[m][lo : hi - 1]:
                move_down[(m, w_mid)] = (rho.id, False)
            move_down[(m, w_next)] = (rho.id, True)
            # the women's side: w moves from m up to m_prev
            lo_w = inst.women_rank[w][m_prev]
            hi_w = inst.women_rank[w][m]
            for m_mid in inst.women_prefs[w][lo_w : hi_w - 1]:
                move_up[(w, m_mid)] = (rho.id, False)
            move_up[(w, m_prev)] = (rho.id, True)
        mu = eliminate(inst, mu, rho)
    edges: dict[tuple[int, int], set[int]] = {}
    for rho in rotations:
        for m, w in rho.pairs:
            hit = move_down.get((m, w))
            if hit is not None and hit[1] and hit[0] != rho.id:
                edges.setdefault((hit[0], rho.id), set()).add(RULE_1)
    for (m, w), (rid, exact) in move_down.items():
        if exact:
            continue
        hit = move_up.get((w, m))
        if hit is not None and not hit[1] and hit[0] != rid:
            edges.setdefault((hit[0], rid), set()).add(RULE_2)
    frozen = {e: frozenset(rules) for e, rules in edges.items()}
    return RotationDigraph(tuple(rotations), frozen)


def matching_from_downset(inst: Instance, dg: RotationDigraph, zs: Iterable[int]) -> Matching:
    """Eliminate the rotations of the downset zs from the man-optimal matching.
    The result does not depend on the elimination order.
    """
    z = set(zs)
    ids = set(range(len(dg.rotations)))
    if not z <= ids:
        raise ValidationError(f"unknown rotation ids {sorted(z - ids)}")
    for a, b in dg.edges:
        if b in z and a not in z:
            raise ValidationError(
                f"not a downset: rotation {b} requires its predecessor {a}"
            )
    mu = gale_shapley(inst, MAN)
    for rid in sorted(z):  # ids are a linear extension of the poset
        mu = eliminate(inst, mu, dg.rotations[rid])
    return mu


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
    mu0 = gale_shapley(inst, MAN)
    seen = {mu0}
    stack = [mu0]
    while stack:
        mu = stack.pop()
        for rho in exposed_rotations(inst, mu, _skip_check=True):
            nxt = eliminate(inst, mu, rho)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return sorted(seen, key=lambda m: m.sorted_pairs())
