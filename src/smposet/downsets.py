"""Counting, exactly uniform sampling, per-vertex marginals and least
weighted downsets of a DAG, all by one loop, `_run`, over one lazy step plan
(`_plan`) of an insert order: each insert's slot, the slot masks of its live
neighbours and the vertices forgotten after it. Each pass gives `_run` an
insert and a forget. Counting and `_least` (whose least bitmasks per summed
weight `fairness` scores) forget an insert's vertices in one dict pass;
`_forward`, for sampling and marginals, forgets one vertex at a time and
keeps the table before each, for the backward walks.

The DP inserts the vertices in the given order and forgets each vertex as
soon as its last neighbour is inserted, so its tables span only the live
vertices: it runs in O(2^s s n) for s the vertex separation of the order
(Kinnersley 1992). Its width cap reads the live vertices.

The instance ops in `fairness` hand `_count`, `_least`, `_sample` and
`_marginals` the order they chose. The public calls take any bag sequence:
they walk all of `pathdecomp._nice_steps`, which refuses an invalid
decomposition of g with ValidationError before any DP step, whatever the
caps, and run the private entry over its insert order, whose vertex
separation is at most the decomposition's width.

Counts are plain Python ints, so they are exact at any size.
"""
from __future__ import annotations

import random

from .errors import CapExceededError, ValidationError
from .pathdecomp import PathDecomposition, _nice_steps
from .posets import Dag

# Many live vertices are refused even when the table stays small. The chain
# 1 -> 2 -> ... -> n-1 with an edge from each of its vertices to n keeps
# every vertex live until n is inserted: its tables hold at most n+1 states,
# but each step updates them all with masks of up to n bits, so MAX_STATES
# never stops it. With this cap lifted it took 0.78 s at n=1000 and 4.7 s
# at n=2000 on a shared 2-CPU machine.
HARD_WIDTH_CAP = 30
# an insert can double the table, so it is refused when twice it would pass this
MAX_STATES = 1 << 20
# the states sample and median store, about 90 bytes each, so under 400 MB;
# the largest store known to answer (attr6's p = 200 band median, 2,403,409)
# is 1.75 times below it, and every benchmark input stores under 1000
MAX_STORED = 1 << 22


def _caps(live: int, states: int) -> None:
    """Raise CapExceededError for an insert that would make more than
    HARD_WIDTH_CAP + 1 vertices live, or would grow a table of `states`
    entries past where it could pass MAX_STATES, checked in that order.
    """
    if live > HARD_WIDTH_CAP + 1:
        raise CapExceededError(f"{live} live vertices exceed width cap {HARD_WIDTH_CAP}")
    if 2 * states > MAX_STATES:
        raise CapExceededError(f"{2 * states} DP states exceed cap {MAX_STATES}")


def _plan(
    order: list[int],
    in_adj: dict[int, tuple[int, ...]],
    out_adj: dict[int, tuple[int, ...]],
):
    """The DP's bookkeeping over an insert order, which must hold each vertex
    of in_adj once, computed lazily: one tuple (live, v, vbit, umask, wmask,
    forgets) per insert. live is the number of vertices live once v is in,
    vbit the slot bit of v, umask and wmask the slot bits of its live in- and
    out-neighbours, and forgets maps the vertices forgotten right after the
    insert, in ascending order, to their slot bits.

    A vertex whose neighbours are all inserted constrains no later step, so
    it is forgotten right after the insert that finished it and frees its
    slot for a later insert. A seen neighbour of an unseen vertex is
    therefore still live, so the slots tell live neighbours from unseen ones.

    Stops after the first insert that makes more than HARD_WIDTH_CAP + 1
    vertices live, which its reader refuses, so a refused order never costs
    masks of more than that many bits.
    """
    width_cap = HARD_WIDTH_CAP
    slot: dict[int, int] = {}
    free: list[int] = []
    # the number of unseen neighbours of the vertex in each slot
    left: dict[int, int] = {}
    for v in order:
        live = len(slot) + 1
        done = []
        umask = 0
        for u in in_adj[v]:
            s = slot.get(u)
            if s is not None:
                umask |= 1 << s
                left[s] -= 1
                if not left[s]:
                    done.append(u)
        wmask = 0
        for w in out_adj[v]:
            s = slot.get(w)
            if s is not None:
                wmask |= 1 << s
                left[s] -= 1
                if not left[s]:
                    done.append(w)
        # the live neighbours hold distinct slots
        unseen = len(in_adj[v]) + len(out_adj[v]) - (umask | wmask).bit_count()
        s = free.pop() if free else len(slot)
        left[s] = unseen
        slot[v] = s
        if not unseen:
            done.append(v)
        done.sort()
        forgets = {}
        for u in done:
            s_u = slot.pop(u)
            free.append(s_u)
            forgets[u] = 1 << s_u
        yield live, v, 1 << s, umask, wmask, forgets
        if live > width_cap + 1:
            return


def _insert(table: dict[int, int], _v: int, vbit: int, umask: int, wmask: int) -> dict[int, int]:
    """The table after inserting the vertex _v of slot vbit: each state keeps
    its count without it, when none of its live out-neighbours is in, and
    with it, when all of its live in-neighbours are. Slot vbit is free in
    every key, so no two writes meet and no count is copied by adding it to 0.
    """
    new: dict[int, int] = {}
    for a, c in table.items():
        if not a & wmask:
            new[a] = c
        if a & umask == umask:
            new[a | vbit] = c
    return new


def _forget(table: dict[int, int], keep: int, _forgets=None) -> dict[int, int]:
    """The table summed over the slot bits outside keep."""
    new: dict[int, int] = {}
    for a, c in table.items():
        key = a & keep
        new[key] = new[key] + c if key in new else c
    return new


def _run(order: list[int], in_adj, out_adj, table: dict, insert, forget) -> dict:
    """The last table of `_plan` over order from the start table, in the
    one loop over the plan: per insert, the caps, insert(table, v, vbit,
    umask, wmask), and one forget(table, keep, forgets) for the vertices
    forgotten after it, keep masking the other slots and forgets the plan's.
    """
    for live, v, vbit, umask, wmask, forgets in _plan(order, in_adj, out_adj):
        _caps(live, len(table))
        table = insert(table, v, vbit, umask, wmask)
        if forgets:
            table = forget(table, ~sum(forgets.values()), forgets)
    return table


def _insert_order(g: Dag, x: PathDecomposition) -> list[int]:
    """The vertices of g in the order the nice steps of x insert them, after
    checking all of x: raises ValidationError unless x is valid for g.
    """
    return [v for v, inserted in _nice_steps(x.bags, g.in_adj, g.out_adj) if inserted]


def count_downsets(g: Dag, x: PathDecomposition) -> int:
    """Number of downsets of g, computed over any valid path decomposition in
    time O(2^s s n) for s the vertex separation of its insert order, at most
    its width w. Raises ValidationError unless x is valid for g, before any
    DP step; then CapExceededError at an insert that would make more than
    HARD_WIDTH_CAP + 1 vertices live, or whose table could pass MAX_STATES.
    """
    return _count(g, _insert_order(g, x))


def _count(g: Dag, order: list[int]) -> int:
    """`count_downsets` over order."""
    return sum(_run(order, g.in_adj, g.out_adj, {0: 1}, _insert, _forget).values())


def _least(g: Dag, order: list[int], weights: list[int]) -> dict[int, int]:
    """{summed weight: least bitmask} over the downsets of g, which sum
    weights[v - 1] >= 0 and 2^(v - 1) over their vertices v; caps as
    `count_downsets`. A table key packs the live slots' mask under the
    summed weight, above every slot bit as an insert past the width cap is
    refused. Its value is the least bitmask of the partial downsets with that
    key; an extension adds the same bits to all of them, so it stays least.
    """
    shift = HARD_WIDTH_CAP + 1

    def insert(table, v, vbit, umask, wmask):
        step, idbit = (weights[v - 1] << shift) + vbit, 1 << (v - 1)
        new = {}
        for k, b in table.items():
            if not k & wmask:
                new[k] = b
            if k & umask == umask:
                new[k + step] = b + idbit
        return new

    def forget(table, keep, _forgets):
        new = {}
        for k, b in table.items():
            k &= keep
            if k not in new or b < new[k]:
                new[k] = b
        return new

    table = _run(order, g.in_adj, g.out_adj, {0: 0}, insert, forget)
    return {k >> shift: b for k, b in table.items()}


def _forward(g: Dag, order: list[int]):
    """The steps (v, vbit, inserted, before) of `_run` over order with one
    forget step per vertex, before the table a forget step starts from
    (None for an insert), and the downset count. A table maps a mask of live
    slots to the downsets of the inserted subgraph meeting them exactly
    there. Caps as `count_downsets`, and refuses a stored table that would
    take the stored states past MAX_STORED.
    """
    steps = []
    stored = 0

    def insert(table, v, vbit, umask, wmask):
        steps.append((v, vbit, True, None))
        return _insert(table, v, vbit, umask, wmask)

    def forget(table, _keep, forgets):
        nonlocal stored
        for u, ubit in forgets.items():
            stored += len(table)
            if stored > MAX_STORED:
                raise CapExceededError(f"{stored} stored DP states exceed cap {MAX_STORED}")
            steps.append((u, ubit, False, table))
            table = _forget(table, ~ubit)
        return table

    table = _run(order, g.in_adj, g.out_adj, {0: 1}, insert, forget)
    return steps, sum(table.values())


def uniform_int(rng: random.Random, n: int) -> int:
    """Uniform draw from 1..n by rejection sampling on the bit length of n;
    exact for arbitrary-precision n with expected fewer than two rejections.
    """
    if n <= 0:
        raise ValidationError("uniform_int needs a positive bound")
    bits = n.bit_length()
    while True:
        x = rng.getrandbits(bits)
        if x < n:
            return x + 1


def sample_downsets(
    g: Dag, x: PathDecomposition, rng: random.Random, draws: int
) -> list[frozenset[int]]:
    """Downsets of g drawn independently and exactly uniformly, after one
    forward pass with the caps of `_forward`. Each draw walks the steps
    backward from the empty final bag; at a forget step the vertex is kept
    with probability (stored count of the state with its bit set) / (sum of
    the stored counts with and without it), by one `uniform_int`.
    """
    if draws < 1:
        raise ValidationError(f"draws must be positive, got {draws}")
    return _sample(g, _insert_order(g, x), rng, draws)


def _sample(g: Dag, order: list[int], rng: random.Random, draws: int) -> list[frozenset[int]]:
    """`sample_downsets` over order, for a positive number of draws."""
    steps, _total = _forward(g, order)
    out = []
    for _ in range(draws):
        a = 0
        chosen = []
        for v, vbit, inserted, before in reversed(steps):
            if inserted:
                a &= ~vbit
                continue
            with_v = before.get(a | vbit, 0)
            if uniform_int(rng, with_v + before.get(a, 0)) <= with_v:
                a |= vbit
                chosen.append(v)
        out.append(frozenset(chosen))
    return out


def downset_marginals(g: Dag, x: PathDecomposition) -> tuple[int, dict[int, int]]:
    """The number of downsets of g, and for each vertex the number of them
    that contain it. The backward pass counts the completions of each state
    the forward pass reached; such a state has one predecessor at an insert
    step, so no edge checks are needed.
    """
    return _marginals(g, _insert_order(g, x))


def _marginals(g: Dag, order: list[int]) -> tuple[int, dict[int, int]]:
    """`downset_marginals` over order."""
    steps, total = _forward(g, order)
    after = {0: 1}
    marginals = {}
    for v, vbit, inserted, before in reversed(steps):
        if inserted:
            prior = _forget(after, ~vbit)
        else:
            # only stored states: completing every bag state would cost 2^w
            prior = {a: after[a & ~vbit] for a in before if (a & ~vbit) in after}
            marginals[v] = sum(before[a] * c for a, c in prior.items() if a & vbit)
        after = prior
    return total, marginals
