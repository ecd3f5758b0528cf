"""Rotations of a stable matching instance: the rotation digraph, built
from Gusfield's two edge rules as the rotations are found, and the stable
matching of each of its downsets.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ValidationError
from .instance import MAN, Instance, Matching, gale_shapley
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

    def __post_init__(self):
        if len(self.pairs) < 2:
            raise ValidationError("a rotation has at least two pairs")
        men = [m for m, _ in self.pairs]
        women = [w for _, w in self.pairs]
        if len(set(men)) != len(men) or len(set(women)) != len(women):
            raise ValidationError("rotation agents must be distinct")

    @staticmethod
    def canonical(pairs: Iterable[tuple[int, int]]) -> "Rotation":
        ps = list(pairs)
        start = min(range(len(ps)), key=lambda i: ps[i][0])
        return Rotation(-1, tuple(ps[start:] + ps[:start]))

    def men(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.pairs)

    def women(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.pairs)


@dataclass(frozen=True)
class RotationDigraph:
    """All rotations of an instance plus rule-tagged edges whose transitive
    closure is the rotation poset. Rotation ids follow elimination order.
    man_optimal is the matching every downset's rebuild starts from.
    """

    rotations: tuple[Rotation, ...]
    edges: dict[tuple[int, int], frozenset[int]]
    man_optimal: Matching

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


def rotation_digraph(inst: Instance) -> RotationDigraph:
    """Enumerate all rotations by repeated elimination from the man-optimal
    matching and emit Rule 1 / Rule 2 edges. Rotation ids follow elimination
    order, which is a linear extension of the rotation poset: each step
    eliminates the exposed rotation with the least minimum man.

    Each man keeps one pointer into his list that only moves down (Gusfield
    1987): women only improve, so a woman who rejects him once rejects him
    for good. After an elimination only the rotation's men and the men whose
    successor is one of its women are re-advanced, and new exposed rotations
    are searched from those men alone. For L list entries and r rotations,
    finding all rotations costs O(L + n r).

    Both edge rules are applied as each rotation is eliminated, from the
    history of each woman's partners: one lookup per pair for Rule 1 and one
    binary search per woman a man passes over for Rule 2, O(L log n) in all.
    Edges are listed Rule 1 first, each rule in elimination order.
    """
    mu0 = gale_shapley(inst, MAN)
    men_prefs, men_rank, women_rank = inst.men_prefs, inst.men_rank, inst.women_rank
    n_men = inst.n_men
    woman_of = [mu0.woman_of(m) for m in range(n_men)]
    man_of = [mu0.man_of(w) for w in range(inst.n_women)]
    # pos[m]: index in m's list of the first woman below his partner who is
    # single or prefers him to her partner; his successor unless she is
    # single. len(list) when there is none
    pos = [len(men_prefs[m]) if w is None else men_rank[m][w] for m, w in enumerate(woman_of)]
    succ: list[Optional[int]] = [None] * n_men
    waiting: list[set[int]] = [set() for _ in range(inst.n_women)]  # men whose successor is w
    # exposed rotations keyed by their least man; in_exposed marks their men
    exposed: dict[int, tuple[tuple[int, int], ...]] = {}
    in_exposed = [False] * n_men

    def advance(m: int) -> None:
        prefs = men_prefs[m]
        new = None
        for i in range(pos[m], len(prefs)):
            w = prefs[i]
            p = man_of[w]
            if p is None:  # she stays single in every stable matching
                break
            if women_rank[w][m] < women_rank[w][p]:
                new = w
                break
        else:
            i = len(prefs)
        pos[m] = i
        old = succ[m]
        if new != old:
            if old is not None:
                waiting[old].discard(m)
            if new is not None:
                waiting[new].add(m)
            succ[m] = new

    def search(starts) -> None:
        """Record every new cycle of m -> man_of[succ[m]] reachable from starts."""
        seen: dict[int, int] = {}  # man -> the start whose walk reached him
        for start in starts:
            m = start
            path = []
            while m not in seen and not in_exposed[m]:
                seen[m] = start
                path.append(m)
                w = succ[m]
                if w is None:
                    break
                m = man_of[w]
            else:
                if seen.get(m) == start:  # closed a cycle on this walk
                    cycle = path[path.index(m) :]
                    least = min(cycle)
                    k = cycle.index(least)
                    exposed[least] = tuple((x, woman_of[x]) for x in cycle[k:] + cycle[:k])
                    for x in cycle:
                        in_exposed[x] = True

    for m in range(n_men):
        advance(m)
    search(range(n_men))
    # climb[w]: the ranks w gave her partners so far, negated so they ascend;
    # climbed_by[w][j]: the rotation that gave her the j-th (None: man-optimal)
    climb = [[] if p is None else [-women_rank[w][p]] for w, p in enumerate(man_of)]
    climbed_by: list[list[Optional[int]]] = [[None] for _ in man_of]
    rotations: list[Rotation] = []
    rule_1: list[tuple[int, int]] = []
    rule_2: list[tuple[int, int]] = []
    while exposed:
        rid = len(rotations)
        rho = Rotation(rid, exposed.pop(min(exposed)))
        rotations.append(rho)
        n = len(rho.pairs)
        for i, (m, w) in enumerate(rho.pairs):
            w_next = rho.pairs[(i + 1) % n][1]
            if woman_of[m] != w or succ[m] != w_next:
                raise ValidationError("rotation is not exposed in this matching")
            # Rule 1: the rotation that matched m to w precedes rho
            if climbed_by[w][-1] is not None:
                rule_1.append((climbed_by[w][-1], rid))
            # Rule 2: m passes the women strictly between w and w_next, each
            # already matched above him; the rotation that moved her from
            # below m to above him precedes rho. There is none when she started
            # above him; she was never his partner, as he only moves down
            for w_mid in men_prefs[m][men_rank[m][w] : men_rank[m][w_next] - 1]:
                j = bisect_right(climb[w_mid], -women_rank[w_mid][m])
                if j:
                    rule_2.append((climbed_by[w_mid][j], rid))
        for i, (m, w) in enumerate(rho.pairs):
            w_next = rho.pairs[(i + 1) % n][1]
            woman_of[m] = w_next
            man_of[w_next] = m
            climb[w_next].append(-women_rank[w_next][m])
            climbed_by[w_next].append(rid)
            in_exposed[m] = False
        # the rotation's men wait on its women, so this list holds them too
        changed = [m for _m, w in rho.pairs for m in waiting[w]]
        for m in changed:
            advance(m)
        search(changed)
    edges: dict[tuple[int, int], set[int]] = {}
    for rule, found in ((RULE_1, rule_1), (RULE_2, rule_2)):
        for e in found:
            edges.setdefault(e, set()).add(rule)
    frozen = {e: frozenset(rules) for e, rules in edges.items()}
    return RotationDigraph(tuple(rotations), frozen, mu0)


def matching_from_downset(inst: Instance, dg: RotationDigraph, zs: Iterable[int]) -> Matching:
    """The stable matching reached by eliminating the rotations of the downset
    zs from the man-optimal matching, in any order.

    The rotations that move one man form a chain, and ids are a linear
    extension, so each man ends with the woman he moves to under the
    highest-id rotation of zs that contains him; a man in none keeps his
    man-optimal partner. Costs O(n + |edges| + sum of |rho| over zs), the
    edge term being the downset check.
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
    woman_of = dict(dg.man_optimal.pairs)
    for rid in sorted(z):
        pairs = dg.rotations[rid].pairs
        n = len(pairs)
        for i, (m, _w) in enumerate(pairs):
            woman_of[m] = pairs[(i + 1) % n][1]
    return Matching(woman_of.items())
