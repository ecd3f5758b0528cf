import random
from collections import Counter

import pytest

from smposet import (
    CapExceededError,
    Dag,
    PathDecomposition,
    ValidationError,
    count_downsets,
    downset_marginals,
    enumerate_downsets_bruteforce,
    is_downset,
    pathwidth_exact_tiny,
    sample_downsets,
    to_nice,
    uniform_int,
    validate_decomposition,
)

from conftest import (
    corrupt_bags,
    five_field_nice_steps,
    merge_runs,
    parent_dp,
    random_dag,
    random_nice_bags,
    reachable_from,
    recorded_dp,
    tight_nice_bags,
    validate_by_rescan,
)


def nice_for(g: Dag) -> PathDecomposition:
    _w, x = pathwidth_exact_tiny(g, max_p=max(10, g.p))
    return to_nice(g, x)


def test_count_chain():
    g = Dag(3, [(1, 2), (2, 3)])
    assert count_downsets(g, nice_for(g)) == 4


def test_count_antichain():
    g = Dag(10, [])
    assert count_downsets(g, nice_for(g)) == 1024


def test_count_empty_graph():
    assert count_downsets(Dag(0, []), PathDecomposition(())) == 1


def test_count_matches_bruteforce_on_random_dags():
    rng = random.Random(109)
    for _ in range(60):
        g = random_dag(rng, rng.randint(0, 10), rng.choice([0.2, 0.4, 0.6]))
        expected = len(enumerate_downsets_bruteforce(g))
        assert count_downsets(g, nice_for(g)) == expected


def test_count_accepts_valid_non_nice():
    # the DP expands any valid decomposition into the steps to_nice gives, so
    # the counts are right and seeded draws are the same draws
    assert count_downsets(Dag(2, [(1, 2)]), PathDecomposition.of([{1, 2}])) == 3
    rng = random.Random(151)
    non_nice = 0
    for _ in range(60):
        g = random_dag(rng, rng.randint(0, 8), rng.choice([0.2, 0.4, 0.6]))
        _w, x = pathwidth_exact_tiny(g)
        x = PathDecomposition(tuple(merge_runs(rng, list(x.bags))))
        assert validate_decomposition(g, x)
        non_nice += not x.is_nice
        assert count_downsets(g, x) == len(enumerate_downsets_bruteforce(g))
        s = rng.randrange(10**6)
        nice = to_nice(g, x)
        assert sample_downsets(g, x, random.Random(s), 20) == sample_downsets(
            g, nice, random.Random(s), 20
        )
        assert downset_marginals(g, x) == downset_marginals(g, nice)
    assert non_nice > 40


def test_count_rejects_invalid():
    g = Dag(2, [(1, 2)])
    x = PathDecomposition.of([{1}, set(), {2}, set()])
    with pytest.raises(ValidationError):
        count_downsets(g, x)


def test_dp_rejects_exactly_what_the_checks_reject():
    # the one-pass checks inside the DP against the rescan oracle, which
    # shares no code with the nice-step walker that the DP and
    # validate_decomposition both run, on nice decompositions with random
    # corruptions; each case is also tried with runs of its bags merged
    # (valid stays valid, but is no longer nice) or with a value added to a
    # bag that is no vertex or only equals one
    rng = random.Random(139)
    vary = random.Random(149)
    rejected = accepted = accepted_non_nice = 0
    for _ in range(2000):
        p = rng.randint(0, 7)
        names = rng.sample(range(1, p + 1), p)
        base = random_dag(rng, p, rng.choice([0.2, 0.4, 0.6]))
        g = Dag(p, [(names[u - 1], names[v - 1]) for u, v in base.edges])
        bags = random_nice_bags(rng, g)
        for _ in range(rng.randint(0, 2)):
            bags = corrupt_bags(rng, g, bags)
        if vary.random() < 0.5:
            variant = merge_runs(vary, bags)
        else:
            variant = list(bags) or [frozenset()]
            i = vary.randrange(len(variant))
            variant[i] = variant[i] | {vary.choice(["a", 1.5, -1, 2.0, True])}
        for x in (PathDecomposition(tuple(bags)), PathDecomposition(tuple(variant))):
            calls = (
                lambda: count_downsets(g, x),
                lambda: sample_downsets(g, x, random.Random(1), 3),
                lambda: downset_marginals(g, x),
            )
            if not validate_by_rescan(g, x):
                rejected += 1
                for call in calls:
                    with pytest.raises(ValidationError):
                        call()
                continue
            accepted += 1
            accepted_non_nice += not x.is_nice
            downsets = enumerate_downsets_bruteforce(g)
            count, draws, (total, marginals) = (call() for call in calls)
            assert count == total == len(downsets)
            assert all(z in downsets for z in draws)
            assert marginals == {v: sum(v in z for z in downsets) for v in g.vertices()}
    assert rejected > 500 and accepted > 500 and accepted_non_nice > 300


def test_count_width_cap(monkeypatch):
    # five sources stay live until their common sink is inserted, so its
    # insert would make six vertices live, more than cap 4 allows
    from smposet import downsets

    monkeypatch.setattr(downsets, "HARD_WIDTH_CAP", 4)
    g = Dag(6, [(i, 6) for i in range(1, 6)])
    x = PathDecomposition.of([set(range(1, 7))])
    for y in (x, to_nice(g, x)):
        with pytest.raises(CapExceededError, match="^6 live vertices exceed width cap 4$"):
            count_downsets(g, y)
    # refused at that insert, before its table is built
    steps, refusal = recorded_dp(list(range(1, 7)), g.in_adj, g.out_adj)
    assert isinstance(refusal, CapExceededError)
    assert [(v, inserted) for v, _vbit, inserted, _t in steps] == [(v, True) for v in range(1, 6)]
    # the same bag of six without the sink keeps one vertex live at a time
    assert count_downsets(Dag(6, []), x) == 64


def _one_bag(n: int) -> PathDecomposition:
    return PathDecomposition.of([range(1, n + 1)])


def _chain_with_sink(n: int) -> Dag:
    return Dag(n, [(i, i + 1) for i in range(1, n - 1)] + [(i, n) for i in range(1, n)])


def test_width_cap_counts_live_vertices():
    # the cap reads the live vertices, not the bag size: the width-3 ladder
    # i -> i+1, i+2, i+3 given as one bag keeps four vertices live, and an
    # antichain in one bag keeps one
    from smposet import downsets

    n = 2000
    ladder = Dag(n, [(i, i + d) for i in range(1, n + 1) for d in (1, 2, 3) if i + d <= n])
    assert count_downsets(ladder, _one_bag(n)) == n + 1
    assert count_downsets(Dag(40, []), _one_bag(40)) == 2**40
    # the chain 1 -> ... -> n-1 with every vertex also pointing to the sink n
    # keeps each vertex live until n is inserted: its tables hold at most n+1
    # states, so only the width cap stops it, at the 32nd insert, and the
    # lazy plan stops there too, before it builds masks of more bits
    g = _chain_with_sink(n)
    with pytest.raises(CapExceededError, match="^32 live vertices exceed width cap 30$"):
        count_downsets(g, _one_bag(n))
    plan = list(downsets._plan(list(range(1, n + 1)), g.in_adj, g.out_adj))
    assert [live for live, *_rest in plan] == list(range(1, 33))
    _done, refusal = _steps(order_dp, g, _one_bag(n).bags)
    assert refusal == (CapExceededError, "32 live vertices exceed width cap 30", 31)


def test_count_state_cap(monkeypatch):
    # a bag within the width cap whose live table would still pass the state
    # cap: twelve sources stay live until their common sink is inserted
    from smposet import downsets

    monkeypatch.setattr(downsets, "MAX_STATES", 1 << 8)
    g = Dag(13, [(i, 13) for i in range(1, 13)])
    x = PathDecomposition.of([set(range(1, 14))])
    with pytest.raises(CapExceededError, match="512 DP states exceed cap 256"):
        count_downsets(g, x)
    assert count_downsets(Dag(8, []), PathDecomposition.of([set(range(1, 9))])) == 256


def test_stored_state_cap(monkeypatch):
    # sampling and marginals keep the table before each forget step, and a
    # pass is refused before a stored table would take the stored states
    # past MAX_STORED: the shift i -> i + 3 keeps its tables at 12 states or
    # fewer, far below MAX_STATES, yet stores 323 over its 30 forgets. The
    # count stores nothing, so it answers under any such cap
    from itertools import accumulate

    from smposet import downsets

    n = 30
    g = Dag(n, [(i, i + 3) for i in range(1, n - 2)])
    x = PathDecomposition.of([range(i, i + 4) for i in range(1, n - 2)])
    steps, refusal = recorded_dp(list(range(1, n + 1)), g.in_adj, g.out_adj)
    assert refusal is None
    stored = list(accumulate(len(b[3]) for b, s in zip(steps, steps[1:]) if not s[2]))
    assert (len(stored), stored[-1], max(len(s[3]) for s in steps)) == (30, 323, 12)
    calls = (
        lambda: sample_downsets(g, x, random.Random(1), 2),
        lambda: downset_marginals(g, x),
    )
    for cap in (stored[-1] // 2, stored[-1] - 1):
        monkeypatch.setattr(downsets, "MAX_STORED", cap)
        want = next(t for t in stored if t > cap)
        for call in calls:
            with pytest.raises(CapExceededError, match=f"^{want} stored DP states exceed cap {cap}$"):
                call()
    monkeypatch.setattr(downsets, "MAX_STORED", stored[-1])
    total = downset_marginals(g, x)[0]
    assert total == count_downsets(g, x) and len(sample_downsets(g, x, random.Random(1), 2)) == 2
    monkeypatch.setattr(downsets, "MAX_STORED", 0)
    assert count_downsets(g, x) == total


def test_count_antichain_in_one_bag_under_state_cap(monkeypatch):
    # each vertex of an antichain is forgotten as soon as it is inserted, so
    # one bag of 12 never holds more than two states
    from smposet import downsets

    monkeypatch.setattr(downsets, "MAX_STATES", 1 << 8)
    g = Dag(12, [])
    x = PathDecomposition.of([set(range(1, 13))])
    assert count_downsets(g, x) == 4096
    steps, refusal = recorded_dp(list(range(1, 13)), g.in_adj, g.out_adj)
    assert refusal is None
    sizes = [(v, inserted, len(t)) for v, _vbit, inserted, t in steps]
    assert sizes == [(v, ins, 2 if ins else 1) for v in range(1, 13) for ins in (True, False)]


def test_least_gives_the_least_bitmask_of_each_weight_sum():
    # over a shuffled insert order, against every downset: the keys are the
    # reachable weight sums, each with the least sum of 2^(v-1) over a
    # downset of that weight; small weights tie often, large ones sit far
    # above the slot bits
    from smposet import downsets

    rng = random.Random(331)
    for _ in range(200):
        g = random_dag(rng, rng.randint(0, 10), rng.choice([0.2, 0.4, 0.6]))
        top = rng.choice([3, 1 << 40])
        weights = [rng.randint(1, top) for _ in range(g.p)]
        order = list(g.vertices())
        rng.shuffle(order)
        want: dict[int, int] = {}
        for z in enumerate_downsets_bruteforce(g):
            w, b = sum(weights[v - 1] for v in z), sum(1 << (v - 1) for v in z)
            want[w] = min(b, want.get(w, b))
        assert downsets._least(g, order, weights) == want


def test_descendants_chain():
    g = Dag(3, [(1, 2), (2, 3)])
    assert reachable_from(g, 1) == {1, 2, 3}
    assert reachable_from(g, 3) == {3}


def test_marginals_match_bruteforce():
    rng = random.Random(127)
    for _ in range(60):
        g = random_dag(rng, rng.randint(0, 10), rng.choice([0.2, 0.4, 0.6]))
        downsets = enumerate_downsets_bruteforce(g)
        total, marginals = downset_marginals(g, nice_for(g))
        assert total == len(downsets)
        assert marginals == {v: sum(v in z for z in downsets) for v in g.vertices()}


def test_uniform_int_is_uniform():
    rng = random.Random(0)
    counts = Counter(uniform_int(rng, 7) for _ in range(70000))
    assert set(counts) == set(range(1, 8))
    for v in counts.values():
        assert abs(v - 10000) < 4 * (10000 * 6 / 7) ** 0.5


def test_uniform_int_rejects_nonpositive():
    with pytest.raises(ValidationError):
        uniform_int(random.Random(0), 0)


def test_sample_single_vertex():
    g = Dag(1, [])
    x = nice_for(g)
    rng = random.Random(1)
    seen = Counter(tuple(sorted(sample_downsets(g, x, rng, 1)[0])) for _ in range(2000))
    assert set(seen) == {(), (1,)}
    assert abs(seen[()] - 1000) < 4 * (2000 * 0.25) ** 0.5


def test_sample_always_downset():
    rng = random.Random(131)
    for _ in range(15):
        g = random_dag(rng, rng.randint(1, 7))
        x = nice_for(g)
        for _ in range(5):
            assert is_downset(g, sample_downsets(g, x, rng, 1)[0])


def test_sample_empty_graph():
    assert sample_downsets(Dag(0, []), PathDecomposition(()), random.Random(2), 1)[0] == frozenset()


def test_sample_frequencies_near_uniform():
    g = Dag(3, [(1, 2), (2, 3)])
    x = nice_for(g)
    rng = random.Random(20240817)
    draws = 40000
    counts = Counter(tuple(sorted(sample_downsets(g, x, rng, 1)[0])) for _ in range(draws))
    assert set(counts) == {(), (1,), (1, 2), (1, 2, 3)}
    sigma = (draws * 0.25 * 0.75) ** 0.5
    for v in counts.values():
        assert abs(v - draws / 4) <= 4 * sigma
    tv = sum(abs(v / draws - 0.25) for v in counts.values()) / 2
    assert tv < 0.02


def test_sample_downsets_near_uniform_with_reused_slots():
    # diamond plus a tail; 4 and 5 are inserted into the slots freed by 1 and 3
    g = Dag(5, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    x = to_nice(g, PathDecomposition.of([{1, 2, 3}, {2, 3, 4}, {4, 5}]))
    expected = {tuple(sorted(z)) for z in enumerate_downsets_bruteforce(g)}
    draws = 42000
    samples = sample_downsets(g, x, random.Random(20240817), draws)
    counts = Counter(tuple(sorted(z)) for z in samples)
    assert set(counts) == expected and len(expected) == 7
    p = 1 / 7
    sigma = (draws * p * (1 - p)) ** 0.5
    for v in counts.values():
        assert abs(v - draws * p) <= 4 * sigma
    tv = sum(abs(v / draws - p) for v in counts.values()) / 2
    assert tv < 0.02


def test_sample_downsets_same_seed_same_draws():
    g = Dag(5, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    x = nice_for(g)
    first = sample_downsets(g, x, random.Random(5), 50)
    assert sample_downsets(g, x, random.Random(5), 50) == first


def test_table_consistency_at_every_prefix():
    # after i bags the table total equals the downset count of the seen part;
    # the DP gets the insert order of the prefix and the adjacency of the
    # seen part alone, so every vertex it knows has been inserted
    from smposet.pathdecomp import _nice_steps

    rng = random.Random(137)
    for _ in range(10):
        g = random_dag(rng, rng.randint(1, 8))
        x = nice_for(g)
        for cut in range(len(x.bags) + 1):
            prefix = x.bags[:cut]
            seen = frozenset().union(*prefix)
            sub = Dag(g.p, {(u, v) for u, v in g.edges if u in seen and v in seen})
            expected = len(
                [z for z in enumerate_downsets_bruteforce(sub) if z <= seen]
            )
            in_adj = {v: sub.in_adj[v] for v in seen}
            out_adj = {v: sub.out_adj[v] for v in seen}
            order = [v for v, inserted in _nice_steps(prefix, in_adj, out_adj) if inserted]
            steps, refusal = recorded_dp(order, in_adj, out_adj)
            table = steps[-1][3] if steps else {0: 1}
            assert refusal is None
            assert sum(table.values()) == expected


def order_dp(bags, in_adj, out_adj):
    """`recorded_dp` as the public calls run the DP: over the insert order
    of the whole walk of the bags, which checks them first. Yields its steps,
    then raises its refusal, if any."""
    from smposet.pathdecomp import _nice_steps

    order = [v for v, inserted in _nice_steps(bags, in_adj, out_adj) if inserted]
    steps, refusal = recorded_dp(order, in_adj, out_adj)
    yield from steps
    if refusal is not None:
        raise refusal


def _walk_fault(g, bags):
    """The message with which the frozen walker refuses bags, or None."""
    try:
        for _step in five_field_nice_steps(bags, g.in_adj, g.out_adj):
            pass
    except ValidationError as exc:
        return str(exc)
    return None


def _steps(dp, g, bags):
    """Every step of dp over bags, items in order, and the refusal that ended
    the pass with the number of inserts done before it, if any."""
    steps = []
    try:
        for v, vbit, inserted, table in dp(bags, g.in_adj, g.out_adj):
            steps.append((v, vbit, inserted, list(table.items())))
    except (ValidationError, CapExceededError) as exc:
        return steps, (type(exc), str(exc), sum(s[2] for s in steps))
    return steps, None


def _total(steps):
    return sum(c for _a, c in steps[-1][3]) if steps else 1


def _by_vertex_sets(steps):
    """The steps with each table key spelled as the sorted live vertices
    whose slot bits it sets, so that runs with other slots compare."""
    holder: dict[int, int] = {}
    out = []
    for v, vbit, inserted, items in steps:
        if inserted:
            holder[vbit] = v
        keys = [tuple(sorted(u for b, u in holder.items() if a & b)) for a, _c in items]
        out.append((v, inserted, [(k, c) for k, (_a, c) in zip(keys, items)]))
    return out


def test_dp_matches_reference_on_tight_cuts():
    # a vertex-separation cut drops each vertex right after its last
    # neighbour's insert already, so early forgets change no step, slot or
    # table: random DAGs cut along shuffled orders, and the cuts along the
    # orders of `_prepare` on random instances, complete and incomplete.
    # Each cut adds one vertex per bag, so walking it gives its order back,
    # and the DP run on the order itself, as the instance ops run it, gives
    # the public calls' counts, marginals and seeded draws over the cut
    from smposet.downsets import _count, _insert_order, _marginals, _sample
    from smposet.fairness import _prepare
    from smposet.pathdecomp import _layout_bags

    from conftest import random_complete_instance, random_incomplete_instance

    rng = random.Random(163)
    cases = []
    for _ in range(400):
        g = random_dag(rng, rng.randint(0, 12), rng.choice([0.15, 0.3, 0.5]))
        cases.append((g, rng.sample(list(g.vertices()), g.p)))
    for _ in range(100):
        inst = random_complete_instance(rng, rng.randint(2, 9))
        cases.append(_prepare(inst)[1:])
        inst = random_incomplete_instance(rng, rng.randint(1, 7), rng.randint(1, 7))
        cases.append(_prepare(inst)[1:])
    walked = 0
    for s, (g, order) in enumerate(cases):
        x = _layout_bags(g, order)
        assert _insert_order(g, x) == list(order)
        assert _count(g, order) == count_downsets(g, x)
        assert _marginals(g, order) == downset_marginals(g, x)
        assert _sample(g, order, random.Random(s), 3) == sample_downsets(g, x, random.Random(s), 3)
        want, refusal = _steps(parent_dp, g, x.bags)
        assert refusal is None
        assert _steps(order_dp, g, x.bags) == (want, None)
        walked += len(want) > 4
    assert walked > 250


def test_dp_matches_reference_on_tight_nice_bags():
    # on any valid decomposition the DP takes the steps of the reference DP
    # over the same nice bags with every vertex dropped right after its last
    # neighbour's insert; slots may differ, since the reference frees a slot
    # where the decomposition drops the vertex
    rng = random.Random(167)
    smaller = 0
    for _ in range(600):
        g = random_dag(rng, rng.randint(0, 9), rng.choice([0.2, 0.4, 0.6]))
        bags = random_nice_bags(rng, g)
        if rng.random() < 0.5:
            bags = merge_runs(rng, bags)
        if rng.random() < 0.3:
            # a vertex kept to the end: the decomposition stays valid
            v = rng.randint(1, max(g.p, 1))
            first = next((i for i, b in enumerate(bags) if v in b), len(bags))
            bags = bags[:first] + [b | {v} for b in bags[first:]]
        x = PathDecomposition(tuple(bags))
        assert validate_by_rescan(g, x)
        got, refusal = _steps(order_dp, g, x.bags)
        want, want_refusal = _steps(parent_dp, g, tuple(tight_nice_bags(g, x)))
        assert refusal is None and want_refusal is None
        assert _by_vertex_sets(got) == _by_vertex_sets(want)
        widest = max((len(t) for _v, _b, _i, t in _steps(parent_dp, g, x.bags)[0]), default=0)
        smaller += max((len(t) for _v, _b, _i, t in got), default=0) < widest
    assert smaller > 60


def test_invalid_decomposition_is_refused_before_any_cap(monkeypatch):
    # the whole decomposition is checked before the DP runs, so a fault
    # after the point where a cap would fire still decides the outcome
    from smposet import downsets

    g = Dag(3, [(1, 2)])
    x = PathDecomposition.of([{1}, {3}, {2, 3}])
    message = "invalid decomposition: seen in-neighbor outside bag"
    for cap in (2, 1):
        monkeypatch.setattr(downsets, "MAX_STATES", cap)
        assert _steps(order_dp, g, x.bags)[1] == (ValidationError, message, 0)
        for call in (
            lambda: count_downsets(g, x),
            lambda: sample_downsets(g, x, random.Random(1), 1),
            lambda: downset_marginals(g, x),
        ):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                call()
    # the reference DP, which checks as it goes, meets the state cap first
    assert _steps(parent_dp, g, x.bags)[1] == (
        CapExceededError, "2 DP states exceed cap 1", 0
    )


def test_sample_checks_draws_before_the_decomposition():
    # a bad draw count is named first, even with an invalid decomposition
    g = Dag(3, [(1, 2)])
    x = PathDecomposition.of([{1}, {3}, {2, 3}])
    for draws in (0, -3):
        with pytest.raises(ValidationError, match=f"^draws must be positive, got {draws}$"):
            sample_downsets(g, x, random.Random(1), draws)


def test_dp_refuses_what_the_reference_refuses(monkeypatch):
    # on valid, corrupted, merged and capped decompositions: an invalid one
    # gives the frozen walker's ValidationError whatever the caps, before any
    # DP step; a valid one gives the downset count wherever the reference
    # counted, and otherwise the count or a cap refusal no earlier than the
    # reference's, whose width cap reads the bag size
    from smposet import downsets

    rng = random.Random(157)
    outcomes = Counter()
    for _ in range(2000):
        p = rng.randint(0, 8)
        names = rng.sample(range(1, p + 1), p)
        base = random_dag(rng, p, rng.choice([0.2, 0.4, 0.6]))
        g = Dag(p, [(names[u - 1], names[v - 1]) for u, v in base.edges])
        bags = random_nice_bags(rng, g)
        if rng.random() < 0.3:
            bags = corrupt_bags(rng, g, bags)
        if rng.random() < 0.5:
            bags = merge_runs(rng, bags)
        capped = rng.random() < 0.3
        monkeypatch.setattr(downsets, "HARD_WIDTH_CAP", rng.randint(1, 4) if capped else 30)
        monkeypatch.setattr(downsets, "MAX_STATES", rng.choice([4, 8, 16]) if capped else 1 << 20)
        x = PathDecomposition(tuple(bags))
        _want_steps, want = _steps(parent_dp, g, x.bags)
        got_steps, got = _steps(order_dp, g, x.bags)
        if not validate_by_rescan(g, x):
            fault = _walk_fault(g, x.bags)
            assert fault is not None
            assert want is not None and (want[0] is CapExceededError or want[1] == fault)
            assert got == (ValidationError, fault, 0)
            outcomes["ValidationError"] += 1
            continue
        assert want is None or want[0] is CapExceededError
        assert got is None or got[0] is CapExceededError
        if got is None:
            assert _total(got_steps) == len(enumerate_downsets_bruteforce(g))
        if want is None:
            assert got is None
            outcomes["counted"] += 1
            continue
        if got is not None:
            assert got[2] >= want[2]
        outcomes["state cap" if "DP states" in want[1] else "width cap"] += 1
    assert min(outcomes[k] for k in ("counted", "ValidationError", "width cap", "state cap")) > 50, outcomes
