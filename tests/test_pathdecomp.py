import random

import pytest

from smposet import (
    CapExceededError,
    Dag,
    Extent,
    PathDecomposition,
    ValidationError,
    compute_range,
    construct_path_decomposition,
    count_downsets,
    enumerate_downsets_bruteforce,
    extent_of,
    format_decomposition,
    parse_decomposition,
    pathwidth_exact_tiny,
    rotation_digraph,
    to_nice,
    transitive_reduction,
    validate_decomposition,
)
from smposet.instance import Instance
from smposet.fairness import _extent_order, _prepare
from smposet.pathdecomp import _layout_bags, _separation

from conftest import (
    corrupt_bags,
    data_text,
    random_complete_instance,
    random_dag,
    random_nice_bags,
    validate_by_rescan,
)

DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
DIAMOND_X = PathDecomposition.of(
    [{1}, {1, 2}, {1, 2, 3}, {2, 3}, {2, 3, 4}, {3, 4}, {4}, set()]
)


def test_printed_decomposition_is_valid():
    assert validate_decomposition(DIAMOND, DIAMOND_X)
    assert DIAMOND_X.width == 2
    assert DIAMOND_X.is_nice


def test_single_bag_is_valid():
    x = PathDecomposition.of([{1, 2, 3, 4}])
    assert validate_decomposition(DIAMOND, x)
    assert x.width == 3


def test_dropping_a_bag_breaks_edge_coverage():
    bags = [b for b in DIAMOND_X.bags if b != frozenset({1, 2, 3})]
    assert not validate_decomposition(DIAMOND, PathDecomposition(tuple(bags)))


def test_convexity_violation_detected():
    x = PathDecomposition.of([{1}, {2}, {1, 2}])
    assert not validate_decomposition(Dag(2, [(1, 2)]), x)


def test_validate_matches_rescan_reference():
    rng = random.Random(113)
    outcomes = set()
    for _ in range(1500):
        p = rng.randint(0, 8)
        g = random_dag(rng, p, rng.choice([0.2, 0.4, 0.6]))
        kind = rng.randrange(3)
        if kind == 0:  # nice, then corrupted
            bags = random_nice_bags(rng, g)
            for _ in range(rng.randint(0, 2)):
                bags = corrupt_bags(rng, g, bags)
        elif kind == 1:  # the non-nice layout decomposition, then corrupted
            bags = list(pathwidth_exact_tiny(g)[1].bags)
            if rng.random() < 0.5:
                bags = corrupt_bags(rng, g, bags)
        else:  # random bags, mostly invalid
            bags = [
                frozenset(rng.sample(range(0, p + 2), rng.randint(0, min(p + 2, 4))))
                for _ in range(rng.randint(0, 2 * p + 1))
            ]
        if bags and rng.random() < 0.1:  # a value that is not a vertex number
            i = rng.randrange(len(bags))
            bags[i] = bags[i] | {rng.choice(["a", 1.5, -1, 2.0, True])}
        x = PathDecomposition(tuple(bags))
        expected = validate_by_rescan(g, x)
        case = (g.p, sorted(g.edges), bags)
        assert validate_decomposition(g, x) is expected, case
        outcomes.add(expected)
        # the DP and to_nice walk the same steps; the rescan shares no code
        if not expected:
            with pytest.raises(ValidationError):
                count_downsets(g, x)
            with pytest.raises(ValidationError):
                to_nice(g, x)
            continue
        assert count_downsets(g, x) == len(enumerate_downsets_bruteforce(g)), case
        nice = to_nice(g, x)
        assert nice.is_nice and nice.width == x.width, case
        assert len(nice) == 2 * g.p and validate_by_rescan(g, nice), case
    assert outcomes == {True, False}


def test_parse_format_round_trip():
    x = parse_decomposition(data_text("diamond.pd"))
    assert x == DIAMOND_X
    assert parse_decomposition(format_decomposition(x)) == x


def test_parse_empty_decomposition():
    assert parse_decomposition(data_text("empty.pd")) == PathDecomposition(())


def test_to_nice_on_printed_decomposition():
    nice = to_nice(DIAMOND, DIAMOND_X)
    assert nice == DIAMOND_X  # already nice, width 2, length 8
    assert len(nice) == 8


def test_to_nice_single_bag():
    g = Dag(3, [(1, 2)])
    nice = to_nice(g, PathDecomposition.of([{1, 2, 3}]))
    assert nice.is_nice and len(nice) == 6 and nice.width == 2
    assert validate_decomposition(g, nice)


def test_to_nice_random_preserves_width_and_validity():
    rng = random.Random(83)
    for _ in range(20):
        g = random_dag(rng, rng.randint(1, 8))
        _w, x = pathwidth_exact_tiny(g)
        # fatten bags randomly while keeping validity, then re-nice
        nice = to_nice(g, x)
        assert nice.is_nice
        assert len(nice) == 2 * g.p
        assert validate_decomposition(g, nice)
        assert nice.width == x.width


def test_to_nice_rejects_invalid():
    with pytest.raises(ValidationError):
        to_nice(Dag(2, [(1, 2)]), PathDecomposition.of([{1}, {2}]))


def test_extent_degenerate_k1():
    from smposet import Rotation, RangeProfile

    rho = Rotation(0, ((0, 0), (1, 1)))
    profile = RangeProfile(1, (5, 5), (5, 5), (5, 5), (5, 5))
    assert extent_of(rho, profile) == Extent(4, 6)


def test_extent_example_rho1(example_instance):
    profile = compute_range(example_instance)
    dg = rotation_digraph(example_instance)
    rho1 = dg.rotations[0]
    # members m1, m2, w1, w2 have minranks 1, 1, 1, 1 (hand-tabulated); k = 4
    assert extent_of(rho1, profile) == Extent(1 - 7, 1 + 7)


def test_edge_extents_intersect():
    rng = random.Random(97)
    for _ in range(15):
        inst = random_complete_instance(rng, rng.randint(2, 7))
        profile = compute_range(inst)
        dg = rotation_digraph(inst)
        exts = {rho.id: extent_of(rho, profile) for rho in dg.rotations}
        n = inst.n_men
        for a, b in dg.edges:
            lo = max(exts[a].lo, exts[b].lo, 1)
            hi = min(exts[a].hi, exts[b].hi, n)
            assert lo <= hi


def test_construct_path_decomposition_master_list():
    order = [1, 0, 2]
    inst = Instance([order] * 3, [order] * 3)
    dg, x = construct_path_decomposition(inst)
    assert dg.rotations == ()
    assert x == PathDecomposition(())


def test_construct_path_decomposition_example(example_instance):
    dg, x = construct_path_decomposition(example_instance)
    assert validate_decomposition(dg.dag(), x)
    k = compute_range(example_instance).k
    assert x.width <= 50 * k * k
    assert x.is_nice


def test_construct_path_decomposition_random():
    rng = random.Random(101)
    for _ in range(15):
        inst = random_complete_instance(rng, rng.randint(2, 10))
        dg, x = construct_path_decomposition(inst)
        assert validate_decomposition(dg.dag(), x)
        k = compute_range(inst).k
        assert x.width <= 50 * k * k
        # bag cardinality bound holds for every bag
        assert all(len(b) <= 50 * k * k for b in x.bags)


def test_construct_path_decomposition_on_range_outputs():
    from smposet import realize_range

    rng = random.Random(102)
    for _ in range(6):
        g = random_dag(rng, rng.randint(1, 5))
        _w, x0 = pathwidth_exact_tiny(g)
        inst = realize_range(g, to_nice(g, x0))
        dg, x = construct_path_decomposition(inst)
        k = compute_range(inst).k
        assert validate_decomposition(dg.dag(), x)
        assert x.width <= 50 * k * k


def test_pathwidth_path_graph():
    g = Dag(5, [(i, i + 1) for i in range(1, 5)])
    width, x = pathwidth_exact_tiny(g)
    assert width == 1
    assert validate_decomposition(g, x)


def test_pathwidth_clique():
    g = Dag(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    width, _x = pathwidth_exact_tiny(g)
    assert width == 3


def test_pathwidth_cap():
    with pytest.raises(CapExceededError):
        pathwidth_exact_tiny(Dag(11, []))


def _vertex_separation_scan(g: Dag) -> int:
    """Second independent oracle: minimum over all vertex layouts of the
    maximum number of placed vertices with a neighbor still unplaced.
    """
    import itertools

    nbrs = {v: set() for v in g.vertices()}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    best = g.p
    for perm in itertools.permutations(g.vertices()):
        worst = 0
        placed = set()
        for v in perm:
            placed.add(v)
            boundary = sum(1 for u in placed if nbrs[u] - placed)
            worst = max(worst, boundary)
            if worst >= best:
                break
        best = min(best, worst)
    return best


def test_pathwidth_matches_separation_scan():
    rng = random.Random(103)
    for _ in range(12):
        g = random_dag(rng, rng.randint(1, 7), 0.4)
        width, x = pathwidth_exact_tiny(g)
        assert validate_decomposition(g, x)
        assert width == _vertex_separation_scan(g)
        assert x.width == width


def test_interval_property_of_bags():
    rng = random.Random(107)
    for _ in range(10):
        inst = random_complete_instance(rng, 8)
        dg, x = construct_path_decomposition(inst)
        positions = {}
        for i, bag in enumerate(x.bags):
            for v in bag:
                positions.setdefault(v, []).append(i)
        for v, idxs in positions.items():
            assert idxs == list(range(idxs[0], idxs[-1] + 1))


def _layout_bags_reference(g: Dag, layout: list[int]) -> list[frozenset[int]]:
    """The loop pathwidth_exact_tiny held inline before `_layout_bags`."""
    nbr = [0] * (g.p + 1)
    for u, v in g.edges:
        nbr[u] |= 1 << (v - 1)
        nbr[v] |= 1 << (u - 1)
    # bag_i holds v_i plus every earlier vertex with a neighbor at position >= i
    bags = []
    for i, v in enumerate(layout):
        later = 0
        for x in layout[i:]:
            later |= 1 << (x - 1)
        bag = {v}
        for u in layout[:i]:
            if nbr[u] & later:
                bag.add(u)
        bags.append(frozenset(bag))
    return bags


def test_layout_bags_match_reference():
    rng = random.Random(163)
    for _ in range(300):
        p = rng.randint(0, 12)
        g = random_dag(rng, p, rng.choice([0.1, 0.3, 0.6]))
        layout = rng.sample(list(g.vertices()), p)
        x = _layout_bags(g, layout)
        assert list(x.bags) == _layout_bags_reference(g, layout)
        assert validate_by_rescan(g, x)


def test_separation_is_the_layout_cut_width():
    rng = random.Random(173)
    sizes, densities = set(), set()
    for _ in range(600):
        p = rng.randint(0, 14)
        q = rng.choice([0.0, 0.1, 0.3, 0.6])
        g = random_dag(rng, p, q)
        order = list(g.vertices())
        rng.shuffle(order)
        assert _separation(g, order) == _layout_bags(g, order).width
        sizes.add(p)
        densities.add(q)
    assert 0 in sizes and 0.0 in densities
    assert _separation(Dag(0, []), []) == -1


def test_extent_order_cut_no_wider_than_extent_bags():
    # every edge joins overlapping extents, so a vertex in bag i of the cut
    # covers the extent lower end of the i-th vertex: the cut is never
    # wider, and the cut the DP runs on is never wider than it
    rng = random.Random(167)
    widths = set()
    for _ in range(60):
        inst = random_complete_instance(rng, rng.randint(2, 40))
        dg, nice = construct_path_decomposition(inst)
        profile = compute_range(inst)
        extent_width = nice.width
        reduced = transitive_reduction(dg.dag())
        for g in (dg.dag(), reduced):
            x = _layout_bags(g, _extent_order(dg, profile.orank_men, profile.orank_women))
            assert validate_by_rescan(g, x)
            assert x.width <= extent_width
        _dg, g, order = _prepare(inst)
        y = _layout_bags(g, order)
        assert g == reduced and validate_by_rescan(g, y) and y.width <= x.width
        widths.add(extent_width)
    assert max(widths) > 10
