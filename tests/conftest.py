"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import itertools
import random
from itertools import chain
from pathlib import Path

import pytest

from smposet import (
    CapExceededError,
    Dag,
    Instance,
    Matching,
    PathDecomposition,
    ValidationError,
    blocking_pairs,
    transitive_closure,
)

DATA = Path(__file__).parent / "data"


def data_text(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def random_complete_instance(rng, n: int) -> Instance:
    men = [rng.sample(range(n), n) for _ in range(n)]
    women = [rng.sample(range(n), n) for _ in range(n)]
    return Instance(men, women)


def random_incomplete_instance(rng, n_men: int, n_women: int, edge_prob: float = 0.6) -> Instance:
    """Consistent instance over a random acceptability graph."""
    acceptable = [
        (m, w)
        for m in range(n_men)
        for w in range(n_women)
        if rng.random() < edge_prob
    ]
    men = [[] for _ in range(n_men)]
    women = [[] for _ in range(n_women)]
    for m, w in acceptable:
        men[m].append(w)
        women[w].append(m)
    for lst in men + women:
        rng.shuffle(lst)
    return Instance(men, women)


def band_poset(rng, p: int) -> Dag:
    """Edges (i, i + d) for d <= 3, each kept with probability 1/2."""
    return Dag(p, [
        (i, i + d) for i in range(1, p + 1) for d in (1, 2, 3) if i + d <= p and rng.random() < 0.5
    ])


def renamed_band(poset_rng, name_rng, p: int) -> tuple[Dag, PathDecomposition]:
    """A band poset drawn by poset_rng with its vertices renamed by a
    permutation drawn by name_rng, and the renamed band decomposition: the
    bags {i..i+3}, of width 3, for p >= 4.
    """
    name = [0] + name_rng.sample(range(1, p + 1), p)
    g = Dag(p, [(name[u], name[v]) for u, v in band_poset(poset_rng, p).edges])
    x = PathDecomposition.of([[name[v] for v in range(i, i + 4)] for i in range(1, p - 2)])
    return g, x


def grid_poset(k: int) -> Dag:
    """The k x k grid, (i, j) -> (i + 1, j) and (i, j) -> (i, j + 1), with
    (i, j) numbered i k + j + 1. Its C(2k, k) downsets are the monotone
    staircases, and its pathwidth is k.
    """
    edges = [(i * k + j + 1, (i + 1) * k + j + 1) for i in range(k - 1) for j in range(k)]
    edges += [(i * k + j + 1, i * k + j + 2) for i in range(k) for j in range(k - 1)]
    return Dag(k * k, edges)


def minrank_instances() -> list[Instance]:
    """Instances on which minranks are checked: seeded random complete ones
    with n = 1..40 and n = 300; a master-list one, in which each rank column
    adds one agent; SM 2 0 and SM 0 0; and the five models' realizations of
    a seeded p=20 band poset, some of them with incomplete lists.
    """
    from smposet import (
        parse_instance,
        realize_attr6,
        realize_bounded3,
        realize_complete,
        realize_list2inf,
        realize_range,
    )

    rng = random.Random(173)
    out = [random_complete_instance(rng, n) for n in range(1, 41)]
    out.append(random_complete_instance(rng, 300))
    order = rng.sample(range(30), 30)
    out.append(Instance([order] * 30, [order] * 30))
    out += [parse_instance("SM 2 0\nm1:\nm2:\n"), parse_instance("SM 0 0\n")]
    # renamed, so that rotation ids do not follow the band
    name = [0] + rng.sample(range(1, 21), 20)
    g = Dag(20, [(name[u], name[v]) for u, v in band_poset(rng, 20).edges])
    out += [
        realize_complete(g),
        realize_bounded3(g),
        realize_list2inf(g).instance,
        realize_attr6(g).instance,
        realize_range(g, PathDecomposition.of([[name[v] for v in range(i, i + 4)] for i in range(1, 18)])),
    ]
    return out


def stable_matchings_by_matching_scan(inst: Instance) -> list[Matching]:
    """Oracle for incomplete lists: enumerate every matching in the
    acceptability graph and filter by the blocking-pair predicate.
    """
    out = []

    def extend(m: int, used: set[int], pairs: list[tuple[int, int]]):
        if m == inst.n_men:
            mu = Matching(pairs)
            if not blocking_pairs(inst, mu):
                out.append(mu)
            return
        extend(m + 1, used, pairs)
        for w in inst.men_prefs[m]:
            if w not in used:
                extend(m + 1, used | {w}, pairs + [(m, w)])

    extend(0, set(), [])
    return sorted(out, key=lambda m: m.sorted_pairs())


def reachable_from(g: Dag, v: int) -> set[int]:
    """Vertices reachable from v, including v itself."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for x in g.out_adj[u]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def random_dag(rng, p: int, edge_prob: float = 0.35) -> Dag:
    edges = [
        (u, v)
        for u in range(1, p + 1)
        for v in range(u + 1, p + 1)
        if rng.random() < edge_prob
    ]
    return Dag(p, edges)


def random_nice_bags(rng, g: Dag) -> list[frozenset[int]]:
    """A random nice path decomposition of g: insert the vertices in a random
    order, and forget each vertex, in random order, once all its neighbours
    are in.
    """
    nbrs = {v: set() for v in g.vertices()}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    order = rng.sample(list(g.vertices()), g.p)
    inserted: set[int] = set()
    cur: set[int] = set()
    bags = []
    for v in order:
        inserted.add(v)
        cur.add(v)
        bags.append(frozenset(cur))
        done = sorted(u for u in cur if nbrs[u] <= inserted)
        rng.shuffle(done)
        for u in done:
            cur.discard(u)
            bags.append(frozenset(cur))
    return bags


def corrupt_bags(rng, g: Dag, bags: list[frozenset[int]]) -> list[frozenset[int]]:
    """One random corruption of a nice decomposition of g. Some results are
    still nice and valid (a swap of equal bags, an edge the other order covers
    anyway); the callers compare against an oracle, not against the kind.
    """
    bags = list(bags)
    kind = rng.randrange(7)
    if kind == 0 and len(bags) >= 2:  # swap two bags
        i, j = rng.sample(range(len(bags)), 2)
        bags[i], bags[j] = bags[j], bags[i]
    elif kind == 1 and any(bags):  # insert and forget a forgotten vertex again
        v = rng.choice(sorted(frozenset().union(*bags)))
        gone = max(i for i, b in enumerate(bags) if v in b) + 1
        if gone < len(bags):
            k = rng.randint(gone + 1, len(bags))
            bags[k:k] = [bags[k - 1] | {v}, bags[k - 1]]
    elif kind == 2:  # a vertex that is not in g
        z = rng.choice([0, g.p + 1])
        k = rng.randint(0, len(bags))
        before = bags[k - 1] if k else frozenset()
        bags[k:k] = [before | {z}, before]
    elif kind == 3 and bags:  # drop a bag
        del bags[rng.randrange(len(bags))]
    elif kind == 4 and g.p:  # leave a vertex out, keeping one change per step
        v = rng.choice(list(g.vertices()))
        out = []
        for b in bags:
            b = b - {v}
            if not out or out[-1] != b:
                out.append(b)
        bags = out if out and out[0] else out[1:]
    elif kind == 5 and g.edges:  # nice bags of g minus one edge
        e = rng.choice(sorted(g.edges))
        bags = random_nice_bags(rng, Dag(g.p, g.edges - {e}))
    elif kind == 6 and bags:  # a vertex added to one bag
        i = rng.randrange(len(bags))
        bags[i] = bags[i] | {rng.randint(0, g.p + 1)}
    return bags


def validate_by_rescan(g: Dag, x: PathDecomposition) -> bool:
    """Oracle for decomposition validity that shares no code with
    `pathdecomp._nice_steps`: the earlier validate_decomposition, which
    rescans each vertex's bag span to prove convexity.
    """
    verts = set(g.vertices())
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, bag in enumerate(x.bags):
        for v in bag:
            if v not in verts:
                return False
            first.setdefault(v, i)
            last[v] = i
    if set(first) != verts:
        return False
    for v, lo in first.items():
        hi = last[v]
        if any(v not in x.bags[i] for i in range(lo, hi + 1)):
            return False
    for u, v in g.edges:
        if max(first[u], first[v]) > min(last[u], last[v]):
            return False
    return True


def merge_runs(rng, bags: list[frozenset[int]]) -> list[frozenset[int]]:
    """The bags with runs of one to three consecutive bags replaced by their
    union. A valid decomposition stays valid, but in general not nice.
    """
    out = []
    i = 0
    while i < len(bags):
        j = i + rng.randint(1, 3)
        out.append(frozenset().union(*bags[i:j]))
        i = j
    return out


def tight_nice_bags(g: Dag, x: PathDecomposition) -> list[frozenset[int]]:
    """The nice bags of a valid decomposition x of g, with each vertex
    dropped right after the insert of its last neighbour instead of where x
    drops it. Between two bags of x the leaving vertices go first, then the
    entering ones are inserted, each in sorted order; the vertices one insert
    finishes are dropped in sorted order, the inserted vertex included.
    """
    nbrs = {v: set() for v in g.vertices()}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    inserted: set[int] = set()
    cur: set[int] = set()
    out = []
    prev: frozenset[int] = frozenset()
    for bag in list(x.bags) + [frozenset()]:
        for v in sorted(prev - bag):
            assert v in inserted and v not in cur, "x is not valid for g"
        for v in sorted(bag - prev):
            inserted.add(v)
            cur.add(v)
            out.append(frozenset(cur))
            for u in sorted(u for u in cur if nbrs[u] <= inserted):
                cur.discard(u)
                out.append(frozenset(cur))
        prev = bag
    return out


def five_field_nice_steps(bags, in_adj, out_adj):
    """Frozen copy of the nice-step walker from before the downset DP forgot
    vertices early, when it also held the DP's slots. Yields (v, vbit, size,
    umask, wmask) per step: the vertex, its slot bit, the bag size for an
    insert (0 for a forget), and the slot masks of its seen in- and
    out-neighbours. Raises the ValidationError messages of
    `pathdecomp._nice_steps` at the same steps.
    """
    slot: dict[int, int] = {}
    free: list[int] = []
    seen: set[int] = set()
    prev: frozenset[int] = frozenset()
    for bag in chain(bags, (frozenset(),)):
        delta = bag ^ prev
        if len(delta) > 1:
            # before sorting, so that a bag holding "a" is not a TypeError
            if not in_adj.keys() >= delta:
                raise ValidationError("decomposition is not valid for this graph")
            delta = sorted(prev - bag) + sorted(bag - prev)
        prev = bag
        for v in delta:
            if v in slot:
                s = slot.pop(v)
                free.append(s)
                yield v, 1 << s, 0, 0, 0
                continue
            if v not in in_adj:
                raise ValidationError("decomposition is not valid for this graph")
            if v in seen:
                raise ValidationError("invalid decomposition: vertex inserted twice")
            umask = 0
            for u in in_adj[v]:
                if u in seen:
                    if u not in slot:
                        raise ValidationError(
                            "invalid decomposition: seen in-neighbor outside bag"
                        )
                    umask |= 1 << slot[u]
            wmask = 0
            for w in out_adj[v]:
                if w in seen:
                    if w not in slot:
                        raise ValidationError(
                            "invalid decomposition: seen out-neighbor outside bag"
                        )
                    wmask |= 1 << slot[w]
            s = free.pop() if free else len(slot)
            slot[v] = s
            seen.add(v)
            yield v, 1 << s, len(bag), umask, wmask
    if len(seen) != len(in_adj):
        raise ValidationError("invalid decomposition: a vertex is in no bag")


def parent_dp(bags, in_adj, out_adj):
    """Reference downset DP: the table loop from before early forgets, over
    `five_field_nice_steps`, reading the caps from `smposet.downsets`. Its
    width cap reads the bag size, and it forgets a vertex where the
    decomposition drops it. Yields (v, vbit, inserted, table) per step.
    """
    from smposet import downsets

    width_cap = downsets.HARD_WIDTH_CAP
    table: dict[int, int] = {0: 1}
    for v, vbit, size, umask, wmask in five_field_nice_steps(bags, in_adj, out_adj):
        new: dict[int, int] = {}
        if size:
            # at the first insert of a wide bag, before its table grows
            if size > width_cap + 1:
                raise CapExceededError(f"bag size {size} exceeds width cap {width_cap}")
            if 2 * len(table) > downsets.MAX_STATES:
                raise CapExceededError(
                    f"{2 * len(table)} DP states exceed cap {downsets.MAX_STATES}"
                )
            for a, c in table.items():
                if not a & wmask:
                    new[a] = c
                if a & umask == umask:
                    new[a | vbit] = new.get(a | vbit, 0) + c
        else:
            for a, c in table.items():
                key = a & ~vbit
                new[key] = new.get(key, 0) + c
        table = new
        yield v, vbit, bool(size), table


def recorded_dp(order, in_adj, out_adj):
    """The count's DP over an insert order, one step per insert and per
    forgotten vertex: `downsets._run` with a step that applies the real
    `_insert`, then `_forget` once for each vertex the plan forgets. Returns
    the steps (v, vbit, inserted, table), each with the table after it, and
    the CapExceededError that ended the pass, or None.
    """
    from smposet import downsets

    steps = []

    def step(table, v, vbit, umask, wmask, forgets):
        table = downsets._insert(table, vbit, umask, wmask)
        steps.append((v, vbit, True, table))
        for u, ubit in forgets.items():
            table = downsets._forget(table, ~ubit)
            steps.append((u, ubit, False, table))
        return table

    try:
        downsets._run(order, in_adj, out_adj, {0: 1}, step)
    except CapExceededError as exc:
        return steps, exc
    return steps, None


def stable_matchings_by_permutation_scan(inst: Instance) -> list[Matching]:
    """Oracle independent of the rotation machinery: filter every perfect
    matching by the blocking-pair predicate. Complete square instances only.
    """
    assert inst.is_complete and inst.n_men == inst.n_women
    out = []
    for perm in itertools.permutations(range(inst.n_women)):
        mu = Matching(enumerate(perm))
        if not blocking_pairs(inst, mu):
            out.append(mu)
    return sorted(out, key=lambda m: m.sorted_pairs())


def downsets_by_subset_scan(g: Dag) -> list[frozenset[int]]:
    """Oracle independent of the lattice DFS: test all 2^p subsets against
    the closure-based downset predicate.
    """
    closure = transitive_closure(g)
    verts = list(g.vertices())
    out = []
    for bits in range(1 << g.p):
        z = frozenset(v for i, v in enumerate(verts) if bits >> i & 1)
        if all(u in z for u, v in closure.edges if v in z):
            out.append(z)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _canonical_poset_key(p: int, edges: frozenset[tuple[int, int]]) -> tuple:
    best = None
    verts = list(range(1, p + 1))
    for perm in itertools.permutations(verts):
        relabel = {v: perm[i] for i, v in enumerate(verts)}
        key = tuple(sorted((relabel[u], relabel[v]) for u, v in edges))
        if best is None or key < best:
            best = key
    return (p, best)


def posets_upto_isomorphism(p: int) -> list[Dag]:
    """All posets on p elements up to isomorphism, as Hasse diagrams.

    Candidates are the transitively closed edge sets over pairs (u, v) with
    u < v; every isomorphism class has such a representative.
    """
    pairs = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = frozenset(e for i, e in enumerate(pairs) if bits >> i & 1)
        closed = all(
            ((a, d) in edges)
            for a, b in edges
            for c, d in edges
            if b == c
        )
        if not closed:
            continue
        key = _canonical_poset_key(p, edges)
        if key in seen:
            continue
        seen.add(key)
        from smposet import transitive_reduction

        out.append(transitive_reduction(Dag(p, edges)))
    return out


@pytest.fixture(scope="session")
def example_instance():
    from smposet import parse_instance

    return parse_instance(data_text("example_rotation_poset.sm"))
