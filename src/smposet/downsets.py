"""Counting, exactly uniform sampling and per-vertex marginals of the
downsets of a DAG, all from one table DP (`_dp`) over a path decomposition.
Counting keeps no tables; sampling and marginals keep the table before each
forget step and walk the steps backward over them.

The DP forgets each vertex as soon as its last neighbour is inserted, so
its tables span only the live vertices of a bag: it runs in O(2^s s n) for
s the vertex separation of the insert order (Kinnersley 1992), which is at
most the width w of the decomposition.

The DP reads any bag sequence: `pathdecomp._nice_steps` expands it into
nice steps, each inserting or forgetting one vertex, and checks it in the
same pass, so the DP raises ValidationError exactly when the sequence is not
a valid path decomposition of g.

Counts are plain Python ints, so they are exact at any size.
"""
from __future__ import annotations

import random

from .errors import CapExceededError, ValidationError
from .pathdecomp import PathDecomposition, _nice_steps
from .posets import Dag

# A wide bag is refused even when its table stays small. The chain
# 1 -> 2 -> ... -> n-1 with an edge from each of its vertices to n, given as
# one bag, keeps every vertex live until n is inserted: its tables hold at
# most n+1 states, but each step updates them all with masks of up to n
# bits, so MAX_STATES never stops it. With this cap lifted it took 0.78 s
# at n=1000 and 4.7 s at n=2000 on a shared 2-CPU machine. The cap reads the
# bag size, not the live width: a one-bag width-3 ladder, whose live width
# is 4, took 0.02 s at n=2000 and is refused all the same.
HARD_WIDTH_CAP = 30
# an insert can double the table, so it is refused when twice it would pass this
MAX_STATES = 1 << 20


def _dp(
    bags: tuple[frozenset[int], ...],
    in_adj: dict[int, tuple[int, ...]],
    out_adj: dict[int, tuple[int, ...]],
):
    """The table update loop over the steps of `_nice_steps`, which checks
    the decomposition. Yields (v, vbit, inserted, table) per step: the
    vertex, its slot bit, whether it was inserted, and the new table. A table
    maps a bitmask over bag slots to the number of downsets of the seen
    subgraph that intersect the bag exactly there.

    A vertex whose neighbours are all inserted constrains no later step, so
    it is forgotten right after the insert that finished it: the walker
    lists those vertices with each step, and the DP forgets exactly the
    listed ones, in that order. The walker's own forget step for such a
    vertex comes later and lists nothing, so it changes no table and yields
    nothing. The tables then span only the live vertices of the bag.

    Raises CapExceededError at an insert into a bag wider than
    HARD_WIDTH_CAP, or one whose table could pass MAX_STATES.
    """
    width_cap = HARD_WIDTH_CAP
    table: dict[int, int] = {0: 1}
    for v, vbit, size, umask, wmask, done in _nice_steps(bags, in_adj, out_adj):
        if size:
            # at the first insert of a wide bag, before its table grows
            if size > width_cap + 1:
                raise CapExceededError(f"bag size {size} exceeds width cap {width_cap}")
            if 2 * len(table) > MAX_STATES:
                raise CapExceededError(
                    f"{2 * len(table)} DP states exceed cap {MAX_STATES}"
                )
            # slot vbit is free in every key, so no two writes meet and no
            # count is copied by adding it to 0
            new: dict[int, int] = {}
            for a, c in table.items():
                if not a & wmask:
                    new[a] = c
                if a & umask == umask:
                    new[a | vbit] = c
            table = new
            yield v, vbit, True, table
        for u, ubit in done:
            new = {}
            for a, c in table.items():
                key = a & ~ubit
                new[key] = new[key] + c if key in new else c
            table = new
            yield u, ubit, False, table


def count_downsets(g: Dag, x: PathDecomposition) -> int:
    """Number of downsets of g, computed over any valid path decomposition in
    time O(2^s s n) for s its live width, at most its width w. The same pass
    checks the decomposition and raises ValidationError unless it is valid
    for g; a bag wider than HARD_WIDTH_CAP, or a table that could pass
    MAX_STATES, raises CapExceededError when the pass reaches it, before any
    fault in a later step is seen.
    """
    table = {0: 1}
    for _v, _vbit, _inserted, table in _dp(x.bags, g.in_adj, g.out_adj):
        pass
    return sum(table.values())


def _forward(g: Dag, x: PathDecomposition):
    """The steps of the forward pass, each with the table before it if it is
    a forget step, and the downset count.
    """
    steps = []
    before = {0: 1}
    for v, vbit, inserted, table in _dp(x.bags, g.in_adj, g.out_adj):
        steps.append((v, vbit, inserted, None if inserted else before))
        before = table
    return steps, sum(before.values())


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
    forward pass with the caps of `count_downsets`. Each draw walks the
    steps backward from the empty final bag; at a forget step the vertex is
    kept with probability (stored count of the state with its bit set) /
    (sum of the stored counts with and without it), by one `uniform_int`.
    """
    if draws < 1:
        raise ValidationError(f"draws must be positive, got {draws}")
    steps, _total = _forward(g, x)
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
    steps, total = _forward(g, x)
    after = {0: 1}
    marginals = {}
    for v, vbit, inserted, before in reversed(steps):
        if inserted:
            prior: dict[int, int] = {}
            for b, c in after.items():
                a = b & ~vbit
                prior[a] = prior.get(a, 0) + c
        else:
            # only stored states: completing every bag state would cost 2^w
            prior = {a: after[a & ~vbit] for a in before if (a & ~vbit) in after}
            marginals[v] = sum(before[a] * c for a, c in prior.items() if a & vbit)
        after = prior
    return total, marginals
