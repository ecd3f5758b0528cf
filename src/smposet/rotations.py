"""Rotations of a stable matching instance: extraction, elimination, the
rotation digraph built from Gusfield's two edge rules, and the bijection
between downsets of the digraph and stable matchings.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
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
